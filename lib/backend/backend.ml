module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Audit = Wsc_tcmalloc.Audit
module Telemetry = Wsc_tcmalloc.Telemetry

type kind = Config.backend_kind = Tcmalloc | Rpmalloc | Jemalloc

let kind_name = Config.backend_name

type t =
  | Tc of Malloc.t
  | Rp of Rpmalloc_model.t
  | Je of Jemalloc_model.t

type heap_stats = Malloc.heap_stats

let create ?(config = Config.baseline) ?rseq ?span_snapshot_interval_ns ~topology
    ~clock () =
  match config.Config.backend with
  | Tcmalloc -> Tc (Malloc.create ~config ?rseq ?span_snapshot_interval_ns ~topology ~clock ())
  | Rpmalloc ->
    if rseq <> None then
      invalid_arg "Backend.create: --rseq requires the tcmalloc backend";
    Rp (Rpmalloc_model.create ~config ~topology ~clock ())
  | Jemalloc ->
    if rseq <> None then
      invalid_arg "Backend.create: --rseq requires the tcmalloc backend";
    Je (Jemalloc_model.create ~config ~topology ~clock ())

let kind = function Tc _ -> Tcmalloc | Rp _ -> Rpmalloc | Je _ -> Jemalloc

let tc_exn = function
  | Tc m -> m
  | (Rp _ | Je _) as t ->
    invalid_arg
      (Printf.sprintf "Backend.tc_exn: tcmalloc-only introspection on a %s backend"
         (kind_name (kind t)))

let malloc ?thread t ~cpu ~size =
  match t with
  | Tc m -> Malloc.malloc ?thread m ~cpu ~size
  | Rp m -> Rpmalloc_model.malloc m ~cpu ~size
  | Je m -> Jemalloc_model.malloc m ~cpu ~size

let free ?thread t ~cpu addr ~size =
  match t with
  | Tc m -> Malloc.free ?thread m ~cpu addr ~size
  | Rp m -> Rpmalloc_model.free m ~cpu addr ~size
  | Je m -> Jemalloc_model.free m ~cpu addr ~size

let cpu_idle ?(flush = false) t ~cpu =
  match t with
  | Tc m -> Malloc.cpu_idle ~flush m ~cpu
  | Rp m -> Rpmalloc_model.cpu_idle ~flush m ~cpu
  | Je m -> Jemalloc_model.cpu_idle ~flush m ~cpu

let release_memory t ~target_bytes =
  match t with
  | Tc m -> Malloc.release_memory m ~target_bytes
  | Rp m -> Rpmalloc_model.release_memory m ~target_bytes
  | Je m -> Jemalloc_model.release_memory m ~target_bytes

let heap_stats = function
  | Tc m -> Malloc.heap_stats m
  | Rp m -> Rpmalloc_model.heap_stats m
  | Je m -> Jemalloc_model.heap_stats m

let resident_bytes = function
  | Tc m -> Malloc.resident_bytes m
  | Rp m -> Rpmalloc_model.resident_bytes m
  | Je m -> Jemalloc_model.resident_bytes m

let live_fragmentation_ratio = function
  | Tc m -> Malloc.live_fragmentation_ratio m
  | Rp m -> Rpmalloc_model.live_fragmentation_ratio m
  | Je m -> Jemalloc_model.live_fragmentation_ratio m

let hugepage_coverage = function
  | Tc m -> Malloc.hugepage_coverage m
  | Rp m -> Rpmalloc_model.hugepage_coverage m
  | Je m -> Jemalloc_model.hugepage_coverage m

let fragmentation_ratio = Malloc.fragmentation_ratio

let telemetry = function
  | Tc m -> Malloc.telemetry m
  | Rp m -> Rpmalloc_model.telemetry m
  | Je m -> Jemalloc_model.telemetry m

let vm = function
  | Tc m -> Malloc.vm m
  | Rp m -> Rpmalloc_model.vm m
  | Je m -> Jemalloc_model.vm m

let vcpus = function
  | Tc m -> Malloc.vcpus m
  | Rp m -> Rpmalloc_model.vcpus m
  | Je m -> Jemalloc_model.vcpus m

let config = function
  | Tc m -> Malloc.config m
  | Rp m -> Rpmalloc_model.config m
  | Je m -> Jemalloc_model.config m

let topology = function
  | Tc m -> Malloc.topology m
  | Rp m -> Rpmalloc_model.topology m
  | Je m -> Jemalloc_model.topology m

let clock = function
  | Tc m -> Malloc.clock m
  | Rp m -> Rpmalloc_model.clock m
  | Je m -> Jemalloc_model.clock m

let rseq = function Tc m -> Malloc.rseq m | Rp _ | Je _ -> None
let sampler = function Tc m -> Some (Malloc.sampler m) | Rp _ | Je _ -> None

let stranded_pending_ids = function
  | Tc m -> Malloc.stranded_pending_ids m
  | Rp _ | Je _ -> []

let audit = function
  | Tc m -> Audit.run m
  | Rp m -> Rpmalloc_model.audit m
  | Je m -> Jemalloc_model.audit m

let snapshot = function
  | Tc m -> Malloc.snapshot m
  | (Rp _ | Je _) as t -> Marshal.to_string t [ Marshal.Closures ]

let restore ~kind:k blob =
  match k with
  | Tcmalloc -> Tc (Malloc.restore blob)
  | Rpmalloc | Jemalloc -> (Marshal.from_string blob 0 : t)
