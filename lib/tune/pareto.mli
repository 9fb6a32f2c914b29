(** Constant-memory Pareto archive over (peak RSS, allocator ns).

    An epsilon-grid archive: objective space is quantized into log-scale
    buckets ([resolution] buckets per doubling) and each bucket keeps
    exactly one representative — the minimum under a total order that
    breaks objective ties by genome.  Inserts are commutative and
    idempotent, so the archive is a pure function of the {e set} of
    entries ever inserted (insertion-order independent), and occupancy
    is bounded by the bucket grid, not the evaluation count.

    Values are closure-free (a record over a hashtable of plain
    records), so an archive marshals into a search checkpoint as-is. *)

type entry = {
  e_genome : int array;  (** Canonical {!Space.genome}. *)
  e_rss : int;  (** Peak resident bytes over the replay (minimize). *)
  e_ns : float;  (** Modeled allocator CPU ns (minimize; inverse throughput). *)
}

type t

val create : ?resolution:int -> unit -> t
(** Default resolution: 16 buckets per objective doubling. *)

val insert : t -> entry -> unit
(** @raise Invalid_argument on negative or non-finite objectives. *)

val size : t -> int
(** Occupied buckets. *)

val entries : t -> entry list
(** All bucket representatives, sorted by (rss, ns, genome). *)

val front : t -> entry list
(** The non-dominated subset of {!entries}, same order.  Never empty
    once anything was inserted. *)

val dominates : entry -> entry -> bool
(** Weakly better on both objectives, strictly on at least one. *)
