module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Audit = Wsc_tcmalloc.Audit
module Telemetry = Wsc_tcmalloc.Telemetry
module Clock = Wsc_substrate.Clock
module Vm = Wsc_os.Vm
module Vcpu = Wsc_os.Vcpu

type kind = Config.backend_kind = Tcmalloc | Rpmalloc | Jemalloc

let kind_name = Config.backend_name

type model =
  | Tc of Malloc.t
  | Rp of Rpmalloc_model.t
  | Je of Jemalloc_model.t

(* The process state every model shares; the model holds the same VM,
   vCPU table and telemetry. *)
type t = {
  model : model;
  config : Config.t;
  topology : Wsc_hw.Topology.t;
  clock : Clock.t;
  vm : Vm.t;
  vcpus : Vcpu.t;
  telemetry : Telemetry.t;
}

type heap_stats = Malloc.heap_stats

let create ?(config = Config.baseline) ?rseq ?span_snapshot_interval_ns ~topology
    ~clock () =
  let shared model ~vm ~vcpus ~tel =
    { model; config; topology; clock; vm; vcpus; telemetry = tel }
  in
  let rival create =
    if rseq <> None then
      invalid_arg "Backend.create: --rseq requires the tcmalloc backend";
    let vm = Vm.create () and vcpus = Vcpu.create () and tel = Telemetry.create () in
    shared (create ~vm ~vcpus ~tel) ~vm ~vcpus ~tel
  in
  match config.Config.backend with
  | Tcmalloc ->
    let m = Malloc.create ~config ?rseq ?span_snapshot_interval_ns ~topology ~clock () in
    shared (Tc m) ~vm:(Malloc.vm m) ~vcpus:(Malloc.vcpus m) ~tel:(Malloc.telemetry m)
  | Rpmalloc -> rival (fun ~vm ~vcpus ~tel -> Rp (Rpmalloc_model.create ~vm ~vcpus ~tel))
  | Jemalloc -> rival (fun ~vm ~vcpus ~tel -> Je (Jemalloc_model.create ~vm ~vcpus ~tel))

let kind t = t.config.Config.backend

let tc_exn t =
  match t.model with
  | Tc m -> m
  | Rp _ | Je _ ->
    invalid_arg
      (Printf.sprintf "Backend.tc_exn: tcmalloc-only introspection on a %s backend"
         (kind_name (kind t)))

let recorded t r =
  Malloc.record_reclaim t.telemetry r;
  r

let release_memory t ~target_bytes =
  match t.model with
  | Tc m -> Malloc.release_memory m ~target_bytes
  | Rp _ | Je _ when target_bytes <= 0 -> Malloc.zero_reclaim
  | Rp m -> recorded t (Rpmalloc_model.release m)
  | Je m -> recorded t (Jemalloc_model.release m)

(* The rivals' reclaim-retry loop: a failed mapping counts a retry and
   runs the model's reclaim sweep, up to [reclaim_retries] times; the next
   failure raises [Out_of_memory].  TCMalloc runs its own loop
   ({!Malloc.malloc}): it reclaims once more before it raises, and asks for
   twice the size. *)
let rec rival_malloc t attempt m ~cpu ~size ~retries =
  match attempt m ~cpu ~size with
  | a -> a
  | exception Vm.Mmap_failed _ ->
    if retries >= t.config.Config.reclaim_retries then begin
      Telemetry.record_oom t.telemetry;
      raise Stdlib.Out_of_memory
    end
    else begin
      Telemetry.record_reclaim_retry t.telemetry;
      ignore
        (release_memory t
           ~target_bytes:(Int.max size t.config.Config.reclaim_min_target_bytes));
      rival_malloc t attempt m ~cpu ~size ~retries:(retries + 1)
    end

let malloc ?thread t ~cpu ~size =
  match t.model with
  | Tc m -> Malloc.malloc ?thread m ~cpu ~size
  | Rp _ | Je _ when size <= 0 -> invalid_arg "Backend.malloc: size must be positive"
  | Rp m -> rival_malloc t Rpmalloc_model.malloc m ~cpu ~size ~retries:0
  | Je m -> rival_malloc t Jemalloc_model.malloc m ~cpu ~size ~retries:0

let free ?thread t ~cpu addr ~size =
  match t.model with
  | Tc m -> Malloc.free ?thread m ~cpu addr ~size
  | Rp m -> Rpmalloc_model.free m ~cpu addr ~size
  | Je m -> Jemalloc_model.free m ~cpu addr ~size

let cpu_idle ?(flush = false) t ~cpu =
  match t.model with
  | Tc m -> Malloc.cpu_idle ~flush m ~cpu
  | Rp m -> Rpmalloc_model.cpu_idle ~flush m ~cpu
  | Je m -> Jemalloc_model.cpu_idle ~flush m ~cpu

let heap_stats t =
  match t.model with
  | Tc m -> Malloc.heap_stats m
  | Rp m -> Rpmalloc_model.heap_stats m
  | Je m -> Jemalloc_model.heap_stats m

let resident_bytes t = Vm.resident_bytes t.vm

let live_fragmentation_ratio t =
  match t.model with
  | Tc m -> Malloc.live_fragmentation_ratio m
  | Rp m ->
    Malloc.fragmentation_of t.telemetry ~external_bytes:(Rpmalloc_model.external_bytes m)
  | Je m ->
    Malloc.fragmentation_of t.telemetry ~external_bytes:(Jemalloc_model.external_bytes m)

(* The rivals never subrelease, so every mapped hugepage stays intact. *)
let hugepage_coverage t =
  match t.model with
  | Tc m -> Malloc.hugepage_coverage m
  | Rp _ | Je _ -> Vm.hugepage_coverage t.vm

let fragmentation_ratio = Malloc.fragmentation_ratio
let telemetry t = t.telemetry
let vm t = t.vm
let vcpus t = t.vcpus
let config t = t.config
let topology t = t.topology
let clock t = t.clock
let rseq t = match t.model with Tc m -> Malloc.rseq m | Rp _ | Je _ -> None
let sampler t = match t.model with Tc m -> Some (Malloc.sampler m) | Rp _ | Je _ -> None

let stranded_pending_ids t =
  match t.model with Tc m -> Malloc.stranded_pending_ids m | Rp _ | Je _ -> []

let audit t =
  let of_walk (spans_walked, violations) =
    Audit.of_walk ~time:(Clock.now t.clock) (heap_stats t) t.vm ~spans_walked violations
  in
  match t.model with
  | Tc m -> Audit.run m
  | Rp m -> of_walk (Rpmalloc_model.audit m)
  | Je m -> of_walk (Jemalloc_model.audit m)
