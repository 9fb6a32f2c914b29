(** jemalloc-style allocator model (see the .ml header for the design and
    its deliberate simplifications), the algorithm only: {!Backend} holds
    the process state the models share and runs the reclaim-retry loop and
    the audit's closing checks.  The tests use the size-class constants
    directly. *)

type addr = int
type t

val page_size : int
val num_arenas : int
val small_max : int
val class_count : int
val class_of_size : int -> int
val class_size : int -> int
val slab_pages_of : int -> int

val create : vm:Wsc_os.Vm.t -> vcpus:Wsc_os.Vcpu.t -> tel:Wsc_tcmalloc.Telemetry.t -> t

val malloc : t -> cpu:int -> size:int -> addr
(** One attempt at [size > 0] bytes.
    @raise Wsc_os.Vm.Mmap_failed when the VM refuses a mapping. *)

val free : t -> cpu:int -> addr -> size:int -> unit

val release : t -> Wsc_tcmalloc.Malloc.reclaim_outcome
(** Sweep everything reclaimable, whatever the target: flush every
    tcache, release fully-free current slabs, and let extent coalescing
    unmap empty chunks.  Records no telemetry. *)

val cpu_idle : ?flush:bool -> t -> cpu:int -> unit

val heap_stats : t -> Wsc_tcmalloc.Malloc.heap_stats
val external_bytes : t -> int
(** The tiers' sum, without building {!heap_stats}. *)

val audit : t -> int * Wsc_tcmalloc.Audit.violation list
(** Walk every slab, tcache and extent against the tier counters: the
    slabs walked and the violations, in walk order. *)
