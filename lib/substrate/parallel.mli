(** Deterministic domain-parallel execution of independent seeded tasks.

    The fleet simulator is embarrassingly parallel at the machine and A/B-arm
    granularity: every task owns its {!Rng}, {!Clock}, and allocator state,
    so tasks may run on any domain in any order as long as results are
    {e reduced in index order}.  This module provides exactly that contract:
    a fixed-size pool of worker domains and a chunked [map] whose output
    array is indexed like its input — a 1-domain run and an N-domain run of
    the same tasks produce bit-identical results
    ([parallel_map_matches_sequential_for_any_jobs] in
    test/test_parallel.ml).

    {b The ordered-reduction rule} (see DESIGN.md): parallel code in this
    repo must (1) give each task exclusive ownership of all mutable state it
    touches, and (2) merge task results on the calling domain in task-index
    order.  Never fold results in completion order.

    The pool is created lazily on first parallel use and sized by, in
    priority order: the [?jobs] argument, {!set_default_jobs} (the [--jobs]
    CLI flag), the [WSC_DOMAINS] environment variable, and
    [Domain.recommended_domain_count ()].  [jobs = 1] (or singleton inputs)
    bypasses the pool entirely and runs in the calling domain — the
    reference the parallel tests compare N-domain runs against.  Nested [map] calls from inside a task
    degrade to sequential execution instead of deadlocking. *)

val host_cores : unit -> int
(** Physical parallelism available on this host
    ([Domain.recommended_domain_count], floored at 1).  When this is 1,
    {!map} runs every batch on the calling domain regardless of [?jobs] —
    spawning domains a single core must time-slice only adds overhead, and
    the map contract makes the results identical either way.  Benchmarks
    should report this alongside any speedup claim. *)

val default_jobs : unit -> int
(** The job count a [map] without [?jobs] will use: [--jobs] override if
    set, else [WSC_DOMAINS] if set and positive, else
    [Domain.recommended_domain_count ()].  Always >= 1. *)

val set_default_jobs : int -> unit
(** Install a process-wide override (the [--jobs] flag).  Values < 1 are
    rejected with [Invalid_argument]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f inputs] applies [f] to every element and returns the results in
    input order.  At most [jobs] tasks run concurrently (the calling domain
    participates).  If any task raises, the exception of the
    lowest-indexed failing task is re-raised on the caller after every
    task has finished — partial work is never silently dropped. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)
