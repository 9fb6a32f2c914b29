(* Restartable-sequence tests: the preemption injector itself, staged-op
   purity, exhaustive per-step preemption of the allocator fast path, the
   slow-path fallback, stranded-cache reclaim, torn-operation detection,
   a churn-heavy million-op survival run, and the A/B restart-overhead
   accounting. *)

open Wsc_substrate
module Topology = Wsc_hw.Topology
module Cost_model = Wsc_hw.Cost_model
module Rseq = Wsc_os.Rseq
module Config = Wsc_tcmalloc.Config
module Size_class = Wsc_tcmalloc.Size_class
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Per_cpu_cache = Wsc_tcmalloc.Per_cpu_cache
module Transfer_cache = Wsc_tcmalloc.Transfer_cache
module Apps = Wsc_workload.Apps
module Machine = Wsc_fleet.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rc ?(seed = 1) ?(p = 0.0) ?(budget = 3) () =
  { Rseq.seed; preempt_prob = p; max_restarts = budget }

(* One trivial restartable op: reads vcpu 0, commits a counter bump.
   Returns [Rseq.run_op]'s result: the restarts when it committed,
   [-1 - restarts] when it fell back. *)
let run_unit ?(commits = ref 0) r =
  Rseq.run_op r ~read_vcpu:(fun () -> 0) ~prepare:ignore ~commit:(fun () -> incr commits)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let audit_clean what m =
  let report = Audit.run m in
  if not (Audit.is_clean report) then
    Alcotest.failf "%s: %s" what (Audit.to_string report)

(* {1 Injector engine} *)

let test_engine_commit_without_preemption () =
  let r = Rseq.create (rc ()) in
  let commits = ref 0 in
  check_int "committed with no restarts" 0 (run_unit ~commits r);
  check_int "one commit" 1 !commits;
  let st = Rseq.stats r in
  check_int "ops" 1 st.Rseq.ops;
  check_int "committed ops" 1 st.Rseq.committed;
  check_int "fallbacks" 0 st.Rseq.fallbacks

let test_engine_forced_abort_each_step () =
  List.iteri
    (fun i step ->
      let r = Rseq.create (rc ~budget:Rseq.n_steps ()) in
      Rseq.force_preempt r ~step;
      let commits = ref 0 in
      let name = Rseq.step_name step in
      check_int (name ^ " committed after one restart") 1 (run_unit ~commits r);
      check_int (name ^ " exactly one commit") 1 !commits;
      check_int (name ^ " forced abort consumed") 1 (Rseq.stats r).Rseq.forced_aborts;
      check_bool "step_of_index inverse" true (Rseq.step_of_index i = step))
    Rseq.all_steps;
  expect_invalid_arg "step_of_index 4" (fun () -> Rseq.step_of_index Rseq.n_steps);
  expect_invalid_arg "step_of_index -1" (fun () -> Rseq.step_of_index (-1))

let test_engine_budget_exhaustion () =
  let r = Rseq.create (rc ~budget:0 ()) in
  Rseq.force_preempt r ~step:Rseq.Commit;
  let commits = ref 0 in
  check_int "fell back with no restarts" (-1) (run_unit ~commits r);
  check_int "no commit on fallback" 0 !commits;
  check_int "fallback counted" 1 (Rseq.stats r).Rseq.fallbacks;
  (* The armed abort was consumed; the next op sails through. *)
  check_int "next op commits" 0 (run_unit ~commits r)

let test_engine_migration_idempotent_until_consumed () =
  let r = Rseq.create (rc ()) in
  Rseq.note_migration r;
  Rseq.note_migration r;
  let first = run_unit r in
  let second = run_unit r in
  check_int "one restart from both arms" 1 first;
  check_int "second op unaffected" 0 second;
  check_int "one forced abort" 1 (Rseq.stats r).Rseq.forced_aborts

(* An operation through preallocated closures allocates nothing, even when
   it restarts or falls back. *)
let test_engine_run_op_allocates_nothing () =
  let r = Rseq.create (rc ~p:0.3 ~budget:1 ()) in
  let commits = ref 0 in
  let read_vcpu () = 0 and prepare _ = () and commit () = incr commits in
  ignore (Rseq.run_op r ~read_vcpu ~prepare ~commit);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Rseq.run_op r ~read_vcpu ~prepare ~commit)
  done;
  let words = Gc.minor_words () -. before in
  let st = Rseq.stats r in
  check_bool "restarts and fallbacks exercised" true
    (st.Rseq.restarts > 0 && st.Rseq.fallbacks > 0);
  check_bool (Printf.sprintf "%.0f minor words in 10,000 ops" words) true (words < 100.0)

let test_engine_config_validation () =
  expect_invalid_arg "preempt_prob = 1" (fun () -> Rseq.create (rc ~p:1.0 ()));
  expect_invalid_arg "preempt_prob < 0" (fun () -> Rseq.create (rc ~p:(-0.1) ()));
  expect_invalid_arg "negative budget" (fun () -> Rseq.create (rc ~budget:(-1) ()))

let test_engine_deterministic_streams () =
  let run_many seed index =
    let r = Rseq.create ~index (rc ~seed ~p:0.3 ~budget:2 ()) in
    for _ = 1 to 200 do
      ignore (run_unit r)
    done;
    Rseq.stats r
  in
  check_bool "same seed, same stream" true (run_many 5 0 = run_many 5 0);
  check_bool "job index perturbs the stream" true (run_many 5 0 <> run_many 5 1)

(* {1 Staged-operation purity} *)

(* Every prepare_* only records a decision in the op buffer: the cache (and,
   for a flush, the caller's buffer) changes at commit, and a re-prepare,
   like a restart on another vCPU, replaces the staged op. *)
let test_staged_ops_mutate_only_on_commit () =
  let pcc = Per_cpu_cache.create () in
  let cls = Size_class.index_of_size 64 in
  let size = Size_class.size cls in
  let used vcpu = Per_cpu_cache.used_bytes pcc ~vcpu in
  let batch = [| 0x1000; 0x2000 |] in
  check_int "fill stages both" 2
    (Per_cpu_cache.prepare_fill pcc ~vcpu:0 ~cls ~buf:batch ~lo:0 ~hi:2);
  check_int "staged fill caches nothing" 0 (used 0);
  check_int "fill re-staged on vCPU 1" 2
    (Per_cpu_cache.prepare_fill pcc ~vcpu:1 ~cls ~buf:batch ~lo:0 ~hi:2);
  Per_cpu_cache.commit_staged pcc;
  check_int "commit fills the re-staged vCPU" (2 * size) (used 1);
  check_int "first staging left no trace" 0 (used 0);
  check_int "fill accepted both" 2
    (Per_cpu_cache.fill_from pcc ~vcpu:0 ~cls ~buf:batch ~lo:0 ~hi:2);
  let used0 = used 0 in
  check_int "both cached" (2 * size) used0;
  let out = Array.make 2 0 in
  check_int "flush stages both" 2
    (Per_cpu_cache.prepare_flush pcc ~vcpu:0 ~cls ~n:2 ~buf:out ~pos:0);
  check_int "staged flush removes nothing" used0 (used 0);
  Alcotest.(check (array int)) "staged flush writes nothing" [| 0; 0 |] out;
  check_int "flush re-staged on vCPU 1" 2
    (Per_cpu_cache.prepare_flush pcc ~vcpu:1 ~cls ~n:2 ~buf:out ~pos:0);
  Per_cpu_cache.commit_staged pcc;
  check_int "commit flushes the re-staged vCPU" 0 (used 1);
  check_int "first staging left no trace" used0 (used 0);
  Alcotest.(check (array int)) "flushed most recent first" [| 0x2000; 0x1000 |] out;
  let a = Per_cpu_cache.prepare_alloc pcc ~vcpu:0 ~cls in
  check_int "staging pops nothing" used0 (used 0);
  check_int "staging is repeatable" a (Per_cpu_cache.prepare_alloc pcc ~vcpu:0 ~cls);
  Per_cpu_cache.commit_staged pcc;
  check_int "commit pops one" (used0 - size) (used 0);
  check_bool "dealloc stages a hit" true (Per_cpu_cache.prepare_dealloc pcc ~vcpu:0 ~cls a);
  check_int "staged dealloc pushes nothing" (used0 - size) (used 0);
  Per_cpu_cache.commit_staged pcc;
  check_int "committed dealloc restores" used0 (used 0)

(* {1 Exhaustive per-step preemption of malloc/free} *)

(* For every preemption point, inject exactly one forced abort into an
   allocation and into a deallocation; the op must restart and commit,
   and the heap must stay byte-conserving and duplicate-free (Audit). *)
let test_exhaustive_preemption_points () =
  let clock = Clock.create () in
  let r = Rseq.create (rc ~budget:Rseq.n_steps ()) in
  let m = Malloc.create ~rseq:r ~topology:Topology.default ~clock () in
  (* Warm the caches so both hit and miss shapes are reachable. *)
  let warm = List.init 64 (fun i -> Malloc.malloc m ~cpu:(i mod 4) ~size:64) in
  audit_clean "warmup" m;
  List.iter
    (fun step ->
      let name = Rseq.step_name step in
      let aborts = (Rseq.stats r).Rseq.forced_aborts in
      Rseq.force_preempt r ~step;
      let a = Malloc.malloc m ~cpu:0 ~size:64 in
      check_int (name ^ ": alloc consumed the abort") (aborts + 1)
        (Rseq.stats r).Rseq.forced_aborts;
      audit_clean ("alloc preempted at " ^ name) m;
      Rseq.force_preempt r ~step;
      Malloc.free m ~cpu:0 a ~size:64;
      check_int (name ^ ": free consumed the abort") (aborts + 2)
        (Rseq.stats r).Rseq.forced_aborts;
      audit_clean ("free preempted at " ^ name) m)
    Rseq.all_steps;
  List.iter (fun a -> Malloc.free m ~cpu:0 a ~size:64) warm;
  audit_clean "after draining warmup" m;
  check_int "every op eventually committed" 0 (Rseq.stats r).Rseq.fallbacks

(* With a zero restart budget a single preemption forces the transfer-cache
   fallback; the op must still succeed and leave the heap consistent. *)
let test_fallback_path_consistency () =
  let clock = Clock.create () in
  let r = Rseq.create (rc ~budget:0 ()) in
  let m = Malloc.create ~rseq:r ~topology:Topology.default ~clock () in
  let warm = List.init 16 (fun _ -> Malloc.malloc m ~cpu:0 ~size:128) in
  Rseq.force_preempt r ~step:Rseq.Commit;
  let a = Malloc.malloc m ~cpu:0 ~size:128 in
  audit_clean "alloc fell back" m;
  Rseq.force_preempt r ~step:Rseq.Prepare;
  Malloc.free m ~cpu:0 a ~size:128;
  audit_clean "free fell back" m;
  check_int "both fallbacks recorded" 2 (Telemetry.rseq_fallbacks (Malloc.telemetry m));
  (* The fallback parked the freed object in the transfer cache; it must
     still be allocatable and freeable. *)
  let b = Malloc.malloc m ~cpu:0 ~size:128 in
  Malloc.free m ~cpu:0 b ~size:128;
  List.iter (fun x -> Malloc.free m ~cpu:0 x ~size:128) warm;
  audit_clean "after reuse" m

(* {1 Stranded-cache reclaim} *)

let populate_cache m ~cpu =
  let addrs = List.init 8 (fun _ -> Malloc.malloc m ~cpu ~size:256) in
  List.iter (fun a -> Malloc.free m ~cpu a ~size:256) addrs

let test_stranded_registration_and_background_drain () =
  let clock = Clock.create () in
  let r = Rseq.create (rc ()) in
  let m = Malloc.create ~rseq:r ~topology:Topology.default ~clock () in
  populate_cache m ~cpu:5;
  check_bool "cache populated" true (Per_cpu_cache.used_bytes (Malloc.per_cpu_caches m) ~vcpu:0 > 0);
  Malloc.cpu_idle m ~cpu:5;
  check_bool "retired id registered" true (Malloc.stranded_pending_ids m = [ 0 ]);
  audit_clean "registered stranded cache is not a violation" m;
  (* The background pass (period stranded_reclaim_interval_ns = 1 s) drains it. *)
  Clock.advance clock (1.5 *. Units.sec);
  check_bool "work list drained" true (Malloc.stranded_pending_ids m = []);
  check_int "cache emptied" 0 (Per_cpu_cache.used_bytes (Malloc.per_cpu_caches m) ~vcpu:0);
  check_bool "bytes recorded" true
    (Telemetry.stranded_reclaim_bytes (Malloc.telemetry m) > 0);
  check_int "one reclaim pass" 1
    (Telemetry.stranded_reclaim_events (Malloc.telemetry m));
  audit_clean "after background drain" m

let test_stranded_reuse_cancels_reclaim () =
  let clock = Clock.create () in
  let m = Malloc.create ~topology:Topology.default ~clock () in
  populate_cache m ~cpu:3;
  Malloc.cpu_idle m ~cpu:3;
  check_bool "registered" true (Malloc.stranded_pending_ids m = [ 0 ]);
  (* A new CPU acquires the retired id before the pass fires: the cache is
     live again and must not be drained out from under it. *)
  ignore (Malloc.malloc m ~cpu:7 ~size:256);
  check_bool "re-acquire clears the work list" true (Malloc.stranded_pending_ids m = []);
  Clock.advance clock (2.0 *. Units.sec);
  check_int "no reclaim happened" 0
    (Telemetry.stranded_reclaim_events (Malloc.telemetry m));
  audit_clean "reused id" m

let test_churn_flush_is_immediate () =
  let clock = Clock.create () in
  let r = Rseq.create (rc ()) in
  let m = Malloc.create ~rseq:r ~topology:Topology.default ~clock () in
  populate_cache m ~cpu:2;
  Malloc.cpu_idle ~flush:true m ~cpu:2;
  check_bool "nothing left pending" true (Malloc.stranded_pending_ids m = []);
  check_int "cache drained now" 0 (Per_cpu_cache.used_bytes (Malloc.per_cpu_caches m) ~vcpu:0);
  check_bool "drain recorded" true
    (Telemetry.stranded_reclaim_bytes (Malloc.telemetry m) > 0);
  audit_clean "after churn flush" m;
  (* Retirement armed a forced abort: the next fast-path op restarts once. *)
  let aborts = (Rseq.stats r).Rseq.forced_aborts in
  ignore (Malloc.malloc m ~cpu:4 ~size:256);
  check_int "migration aborted the next op" (aborts + 1)
    (Rseq.stats r).Rseq.forced_aborts

(* {1 Torn-operation detection} *)

let test_audit_detects_duplicate_cached_object () =
  let clock = Clock.create () in
  let m = Malloc.create ~topology:Topology.uniprocessor ~clock () in
  let a = Malloc.malloc m ~cpu:0 ~size:64 in
  Malloc.free m ~cpu:0 a ~size:64;
  (* Simulate a torn commit: the object is now cached twice. *)
  let cls = Size_class.index_of_size 64 in
  ignore
    (Transfer_cache.insert_from (Malloc.transfer_cache m) ~cls ~domain:0
       ~now:(Clock.now clock) ~buf:[| a |] ~lo:0 ~hi:1);
  let report = Audit.run m in
  check_bool "duplicate flagged" true
    (List.exists (fun v -> v.Audit.check = "torn-operation") report.Audit.violations)

(* {1 Churn-heavy survival} *)

(* A million alloc/free ops under a 2%-per-step injector with periodic CPU
   churn (both flushing and stranding), auditing the whole heap at every
   checkpoint: preemption must never lose or duplicate an object. *)
let test_million_op_churn_survival () =
  let clock = Clock.create () in
  let r = Rseq.create (rc ~seed:9 ~p:0.02 ()) in
  let m = Malloc.create ~rseq:r ~topology:Topology.default ~clock () in
  let rng = Rng.create 123 in
  let sizes = [| 64; 128; 256; 512; 1024 |] in
  let cap = 30_000 in
  let live = Array.make cap (0, 0) in
  let len = ref 0 in
  let ops = 1_000_000 in
  for op = 1 to ops do
    if (!len = 0 || Rng.bool rng) && !len < cap then begin
      let size = Rng.choose rng sizes in
      let a = Malloc.malloc m ~cpu:(Rng.int rng 8) ~size in
      live.(!len) <- (a, size);
      incr len
    end
    else begin
      let i = Rng.int rng !len in
      let a, size = live.(i) in
      live.(i) <- live.(!len - 1);
      decr len;
      Malloc.free m ~cpu:(Rng.int rng 8) a ~size
    end;
    if op mod 100_000 = 0 then begin
      (* Churn: retire a few CPUs, half flushed, half left stranded for the
         background pass (the clock advance fires it). *)
      for cpu = 0 to 7 do
        if Rng.bernoulli rng 0.3 then
          Malloc.cpu_idle ~flush:(Rng.bool rng) m ~cpu
      done;
      Clock.advance clock (0.3 *. Units.sec);
      audit_clean (Printf.sprintf "checkpoint at op %d" op) m
    end
  done;
  let st = Rseq.stats r in
  check_int "every op accounted" st.Rseq.ops (st.Rseq.committed + st.Rseq.fallbacks);
  check_bool "preemption actually exercised" true (st.Rseq.restarts > 1000);
  check_bool "stranded reclaim actually exercised" true
    (Telemetry.stranded_reclaim_events (Malloc.telemetry m) > 0);
  check_int "telemetry mirrors the injector" st.Rseq.restarts
    (Telemetry.rseq_restarts (Malloc.telemetry m))

(* {1 Restart-overhead accounting (A/B)} *)

(* Same seed, same workload, rseq off vs on: the drivers issue identical
   call sequences, so the per-CPU tier's extra charged nanoseconds must be
   exactly restarts x the fast-path hit cost (the Fig. 4 quantification). *)
let test_ab_restart_overhead_accounting () =
  let run rseq =
    let machine =
      Machine.create ~seed:11 ?rseq ~platform:Topology.default
        ~jobs:[ Apps.monarch ] ()
    in
    Machine.run machine ~duration_ns:(2.0 *. Units.sec) ~epoch_ns:Units.ms;
    Backend.telemetry (List.hd (Machine.jobs machine)).Machine.backend
  in
  let control = run None in
  let experiment = run (Some (rc ~seed:11 ~p:0.01 ())) in
  let restarts = Telemetry.rseq_restarts experiment in
  check_bool "restarts happened" true (restarts > 0);
  check_int "control has no rseq ops" 0 (Telemetry.rseq_ops control);
  let tier tel = Telemetry.tier_ns tel Cost_model.Per_cpu_cache in
  let overhead = tier experiment -. tier control in
  let expected =
    float_of_int restarts *. Cost_model.tier_hit_ns Cost_model.Per_cpu_cache
  in
  check_bool
    (Printf.sprintf "overhead %.1f ns = %d restarts x hit cost (%.1f ns)" overhead
       restarts expected)
    true
    (Float.abs (overhead -. expected) < 1.0)

let suite =
  [
    ( "rseq-engine",
      [
        Alcotest.test_case "commit without preemption" `Quick
          test_engine_commit_without_preemption;
        Alcotest.test_case "forced abort at each step" `Quick
          test_engine_forced_abort_each_step;
        Alcotest.test_case "budget exhaustion falls back" `Quick
          test_engine_budget_exhaustion;
        Alcotest.test_case "migration arming is one-shot" `Quick
          test_engine_migration_idempotent_until_consumed;
        Alcotest.test_case "config validation" `Quick test_engine_config_validation;
        Alcotest.test_case "run_op allocates nothing" `Quick
          test_engine_run_op_allocates_nothing;
        Alcotest.test_case "deterministic streams" `Quick
          test_engine_deterministic_streams;
        Alcotest.test_case "staged ops mutate only on commit" `Quick
          test_staged_ops_mutate_only_on_commit;
      ] );
    ( "rseq-malloc",
      [
        Alcotest.test_case "exhaustive preemption points" `Quick
          test_exhaustive_preemption_points;
        Alcotest.test_case "fallback path consistency" `Quick
          test_fallback_path_consistency;
        Alcotest.test_case "stranded registration and drain" `Quick
          test_stranded_registration_and_background_drain;
        Alcotest.test_case "reuse cancels stranded reclaim" `Quick
          test_stranded_reuse_cancels_reclaim;
        Alcotest.test_case "churn flush is immediate" `Quick
          test_churn_flush_is_immediate;
        Alcotest.test_case "audit detects duplicates" `Quick
          test_audit_detects_duplicate_cached_object;
        Alcotest.test_case "million-op churn survival" `Slow
          test_million_op_churn_survival;
        Alcotest.test_case "A/B restart overhead accounting" `Slow
          test_ab_restart_overhead_accounting;
      ] );
  ]
