(* Backend conformance checker for the qcheck properties in
   test_backend.ml: the backend-agnostic slice of [Wsc_tcmalloc.Audit]
   lifted into a scripted harness every backend, TCMalloc included, must
   pass.

   A script is a flat list of operations (allocations with CPU context,
   frees of live objects, CPU churn, memory-pressure reclaims, and
   explicit check points).  The harness keeps a shadow live set and at
   every check point verifies the invariants no allocator may break,
   whatever its internal architecture:

   - conservation against the shadow: telemetry live bytes and
     outstanding-object counts equal the shadow set exactly;
   - no double-allocation: a returned address is never inside a live
     object (exact-address duplicates caught at alloc time, range overlap
     at check points);
   - free-of-live succeeds: no free in a generated script may raise;
   - stats sanity: every heap_stats field is non-negative,
     external fragmentation is exactly the sum of the four tier fields,
     and resident >= live rounded >= live requested;
   - limit compliance: resident never exceeds the configured hard limit;
   - the backend's own audit comes back clean.

   [run] also sets a soft limit at 85% of [hard_limit_bytes], so the
   reclaim path runs; [Out_of_memory] under a hard limit is a legal
   outcome, not a failure. *)

module Rng = Wsc_substrate.Rng
module Clock = Wsc_substrate.Clock
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Backend = Wsc_backend.Backend

type op =
  | Alloc of { cpu : int; size : int }
  | Free of { cpu : int; index : int }
      (** Free the [index mod live]-th live object (no-op when none). *)
  | Churn of { cpu : int; flush : bool }  (** {!Backend.cpu_idle}. *)
  | Pressure of { target_bytes : int }  (** {!Backend.release_memory}. *)
  | Check  (** Run every invariant now. *)

type failure = { step : int; invariant : string; detail : string }

let describe_failure f =
  Printf.sprintf "step %d: %s: %s" f.step f.invariant f.detail

(* The alloc-size mix leans small the way Fig. 7 does, with a tail of
   large and huge objects so span runs / extents get exercised. *)
let gen_size rng =
  match Rng.int rng 100 with
  | n when n < 55 -> Rng.int_in rng 8 256
  | n when n < 80 -> Rng.int_in rng 257 4096
  | n when n < 92 -> Rng.int_in rng 4097 (64 * 1024)
  | n when n < 98 -> Rng.int_in rng (64 * 1024) (512 * 1024)
  | _ -> Rng.int_in rng (512 * 1024) (4 * 1024 * 1024)

let script ~seed ~length =
  let rng = Rng.create (0x5eed + (seed * 7919)) in
  let ops = ref [] in
  for step = 1 to length do
    let op =
      match Rng.int rng 100 with
      | n when n < 48 -> Alloc { cpu = Rng.int rng 16; size = gen_size rng }
      | n when n < 88 -> Free { cpu = Rng.int rng 16; index = Rng.bits rng land 0xffff }
      | n when n < 93 -> Churn { cpu = Rng.int rng 16; flush = Rng.bool rng }
      | n when n < 96 -> Pressure { target_bytes = (1 + Rng.int rng 32) * 1024 * 1024 }
      | _ -> Check
    in
    ops := op :: !ops;
    if step = length then ops := Check :: !ops
  done;
  List.rev !ops

type live = { mutable addrs : int array; mutable sizes : int array; mutable n : int }

let live_push l addr size =
  if l.n = Array.length l.addrs then begin
    let cap = max 64 (2 * l.n) in
    let addrs = Array.make cap 0 and sizes = Array.make cap 0 in
    Array.blit l.addrs 0 addrs 0 l.n;
    Array.blit l.sizes 0 sizes 0 l.n;
    l.addrs <- addrs;
    l.sizes <- sizes
  end;
  l.addrs.(l.n) <- addr;
  l.sizes.(l.n) <- size;
  l.n <- l.n + 1

(* Swap-remove keeps frees O(1) and the index->object mapping a pure
   function of the op sequence. *)
let live_take l index =
  let addr = l.addrs.(index) and size = l.sizes.(index) in
  l.n <- l.n - 1;
  l.addrs.(index) <- l.addrs.(l.n);
  l.sizes.(index) <- l.sizes.(l.n);
  (addr, size)

let check_invariants backend l ~step =
  let failures = ref [] in
  let fail invariant detail = failures := { step; invariant; detail } :: !failures in
  let tel = Backend.telemetry backend in
  let shadow_bytes = ref 0 in
  for i = 0 to l.n - 1 do
    shadow_bytes := !shadow_bytes + l.sizes.(i)
  done;
  let live_req = Telemetry.live_requested_bytes tel in
  if live_req <> !shadow_bytes then
    fail "shadow-conservation"
      (Printf.sprintf "telemetry live %d B <> shadow %d B" live_req !shadow_bytes);
  let outstanding = Telemetry.alloc_count tel - Telemetry.free_count tel in
  if outstanding <> l.n then
    fail "shadow-conservation"
      (Printf.sprintf "outstanding %d objects <> shadow %d" outstanding l.n);
  (* Range disjointness over the live set. *)
  let order = Array.init l.n (fun i -> i) in
  Array.sort (fun a b -> compare l.addrs.(a) l.addrs.(b)) order;
  for k = 0 to l.n - 2 do
    let a = order.(k) and b = order.(k + 1) in
    if l.addrs.(a) + l.sizes.(a) > l.addrs.(b) then
      fail "double-allocation"
        (Printf.sprintf "live ranges overlap: 0x%x+%d and 0x%x" l.addrs.(a) l.sizes.(a)
           l.addrs.(b))
  done;
  let s = Backend.heap_stats backend in
  let tiers =
    s.Malloc.front_end_cached_bytes + s.Malloc.transfer_cached_bytes
    + s.Malloc.cfl_fragmented_bytes + s.Malloc.pageheap_fragmented_bytes
  in
  if s.Malloc.external_fragmentation_bytes <> tiers then
    fail "stats-consistency"
      (Printf.sprintf "external fragmentation %d B <> tier sum %d B"
         s.Malloc.external_fragmentation_bytes tiers);
  List.iter
    (fun (name, v) ->
      if v < 0 then fail "stats-consistency" (Printf.sprintf "%s is negative: %d" name v))
    [
      ("front_end_cached_bytes", s.Malloc.front_end_cached_bytes);
      ("transfer_cached_bytes", s.Malloc.transfer_cached_bytes);
      ("cfl_fragmented_bytes", s.Malloc.cfl_fragmented_bytes);
      ("pageheap_fragmented_bytes", s.Malloc.pageheap_fragmented_bytes);
      ("live_requested_bytes", s.Malloc.live_requested_bytes);
      ("resident_bytes", s.Malloc.resident_bytes);
    ];
  if s.Malloc.live_rounded_bytes < s.Malloc.live_requested_bytes then
    fail "stats-consistency"
      (Printf.sprintf "live rounded %d B below live requested %d B"
         s.Malloc.live_rounded_bytes s.Malloc.live_requested_bytes);
  if s.Malloc.resident_bytes < s.Malloc.live_rounded_bytes then
    fail "byte-conservation"
      (Printf.sprintf "resident %d B below live rounded %d B" s.Malloc.resident_bytes
         s.Malloc.live_rounded_bytes);
  (match Wsc_os.Vm.hard_limit (Backend.vm backend) with
  | Some limit when s.Malloc.resident_bytes > limit ->
    fail "limit-compliance"
      (Printf.sprintf "resident %d B above hard limit %d B" s.Malloc.resident_bytes limit)
  | Some _ | None -> ());
  let report = Backend.audit backend in
  if not (Audit.is_clean report) then
    List.iter (fun v -> fail ("audit:" ^ v.Audit.check) v.Audit.detail)
      report.Audit.violations;
  List.rev !failures

type result = {
  ops_run : int;
  allocs : int;
  frees : int;
  checks : int;
  failures : failure list;
}

let passed r = r.failures = []

let run ?(config = Config.baseline) ?hard_limit_bytes ~script:ops () =
  let clock = Clock.create () in
  let backend = Backend.create ~config ~topology:Wsc_hw.Topology.default ~clock () in
  (match hard_limit_bytes with
  | Some b ->
    Wsc_os.Vm.set_hard_limit (Backend.vm backend) (Some b);
    Wsc_os.Vm.set_soft_limit (Backend.vm backend) (Some (b * 85 / 100))
  | None -> ());
  let l = { addrs = Array.make 64 0; sizes = Array.make 64 0; n = 0 } in
  let seen = Hashtbl.create 256 in
  let allocs = ref 0 and frees = ref 0 and checks = ref 0 and step = ref 0 in
  let failures = ref [] in
  let fail invariant detail =
    failures := { step = !step; invariant; detail } :: !failures
  in
  List.iter
    (fun op ->
      incr step;
      match op with
      | Alloc { cpu; size } -> (
        match Backend.malloc backend ~cpu ~size with
        | addr ->
          incr allocs;
          if Hashtbl.mem seen addr then
            fail "double-allocation" (Printf.sprintf "0x%x returned while live" addr)
          else begin
            Hashtbl.replace seen addr ();
            live_push l addr size
          end
        | exception Stdlib.Out_of_memory ->
          (* A legal outcome under a hard limit; the shadow set is simply
             not extended. *)
          ())
      | Free { cpu; index } ->
        if l.n > 0 then begin
          let addr, size = live_take l (index mod l.n) in
          Hashtbl.remove seen addr;
          (match Backend.free backend ~cpu addr ~size with
          | () -> incr frees
          | exception exn ->
            fail "free-of-live"
              (Printf.sprintf "free of live 0x%x (%d B) raised %s" addr size
                 (Printexc.to_string exn)))
        end
      | Churn { cpu; flush } -> Backend.cpu_idle ~flush backend ~cpu
      | Pressure { target_bytes } ->
        ignore (Backend.release_memory backend ~target_bytes)
      | Check ->
        incr checks;
        failures := List.rev_append (check_invariants backend l ~step:!step) !failures)
    ops;
  {
    ops_run = !step;
    allocs = !allocs;
    frees = !frees;
    checks = !checks;
    failures = List.rev !failures;
  }
