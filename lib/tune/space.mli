(** The tunable configuration space.

    A candidate is a {e genome}: one int per knob, each an index into
    that knob's value grid.  Grids are chosen so the paper-default
    {!Wsc_tcmalloc.Config.baseline} is exactly representable
    ({!baseline} decodes to it), covering the per-CPU cache budget and
    class cap, the transfer-cache capacity [L]-list and filler-threshold
    [C] knobs of Sec. 4, the release/reclaim intervals and hugepage
    release policy, plus the reclaim knobs shared with the rival
    backends.

    {b Gating.}  The rpmalloc/jemalloc models read only the shared
    reclaim knobs, so under those backends every TCMalloc-specific gene
    is {e inactive}: {!clamp} freezes it at baseline and
    {!random}/{!mutate}/{!neighbors} never touch it — searches spend
    their budget only on dimensions the backend can feel.

    {b Totality.}  {!clamp} maps {e any} int array (any length, any
    values, any sign) to a canonical genome, and every decode goes
    through it — so arbitrary bytes always yield a config the backend
    accepts (the qcheck round-trip property). *)

type genome = int array

val num_genes : int
val cardinality : int -> int
(** Grid size of gene [i]. *)

val gene_name : int -> string

val active : Wsc_tcmalloc.Config.backend_kind -> int -> bool
(** Is gene [i] searchable under this backend? *)

val baseline : genome
(** The genome decoding to the paper-default config (any backend). *)

val clamp : backend:Wsc_tcmalloc.Config.backend_kind -> int array -> genome
(** Canonicalize: fold each gene into its grid (euclidean mod), freeze
    inactive genes at baseline, fix the length.  Idempotent. *)

val decode : backend:Wsc_tcmalloc.Config.backend_kind -> int array -> Wsc_tcmalloc.Config.t
(** [clamp] then apply every knob to [Config.baseline] under [backend]. *)

val of_bytes : backend:Wsc_tcmalloc.Config.backend_kind -> string -> genome
(** One byte per gene (missing bytes read as baseline), clamped. *)

val random : backend:Wsc_tcmalloc.Config.backend_kind -> Wsc_substrate.Rng.t -> genome
val mutate :
  backend:Wsc_tcmalloc.Config.backend_kind -> Wsc_substrate.Rng.t -> genome -> genome
(** Per-gene resample with probability 0.15; guaranteed to differ from its
    input whenever the active space has more than one point. *)

val crossover : Wsc_substrate.Rng.t -> genome -> genome -> genome
(** Uniform crossover of two canonical genomes. *)

val neighbors : backend:Wsc_tcmalloc.Config.backend_kind -> genome -> genome list
(** All one-step grid moves on active genes (the hill-climb
    neighborhood), in gene order, -1 before +1. *)

val key : genome -> string
(** Canonical dotted-index form, e.g. ["4.3.0.2..."]; injective on
    canonical genomes. *)

val render : int -> int -> string
(** [render gene value] pretty-prints grid point [value] of [gene]
    (e.g. ["3 MiB"], ["on"], ["8"]). *)

val describe : genome -> string
(** Human-readable diff vs the paper default (["paper-default"] when
    equal). *)
