(** A growable array of unboxed floats.

    Telemetry time series (thread counts, rseq restarts) append one sample
    per control-plane tick for the whole simulation; a float-array vector
    keeps that O(1) amortized with zero per-sample boxing, where the
    previous [(float * int) list] accumulators allocated a tuple and a cons
    cell each ({!Int_stack} is the int-payload counterpart). *)

type t

val create : ?initial_capacity:int -> unit -> t
val length : t -> int
val push : t -> float -> unit
val get : t -> int -> float
val set : t -> int -> float -> unit

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] elements (used by series
    downsampling). *)
