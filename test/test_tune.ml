(* Tests for the config autotuner: genome totality (arbitrary bytes decode
   to configs every backend accepts), Pareto-archive invariants, search
   determinism (seed, jobs, kill/resume), the guide-table build-count
   regression, and golden checks of the committed BENCH artifacts. *)

open Wsc_substrate
module Config = Wsc_tcmalloc.Config
module Backend = Wsc_backend.Backend
module Space = Wsc_tune.Space
module Pareto = Wsc_tune.Pareto
module Tuner = Wsc_tune.Tune
module Replay = Wsc_trace.Replay
module Campaign = Wsc_fleet.Campaign
module Arena = Wsc_fleet.Arena

let qcheck t = QCheck_alcotest.to_alcotest t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let backend_of_int i =
  List.nth Config.all_backends (abs i mod List.length Config.all_backends)

(* A small shared event stream: enough traffic to separate configs, cheap
   enough to replay a few dozen times. *)
let events = lazy (Fixtures.recorded_events ~seed:3)

(* {1 Genome space} *)

(* Any byte string decodes, via clamp, to a genome whose config every
   backend constructs without complaint — the fuzz-safety contract. *)
let bytes_decode_total =
  QCheck.Test.make ~name:"space_of_bytes_always_yields_accepted_config" ~count:200
    QCheck.(pair small_int string)
    (fun (bk, s) ->
      let backend = backend_of_int bk in
      let g = Space.of_bytes ~backend s in
      Array.length g = Space.num_genes
      && Array.for_all (fun v -> v >= 0) g
      &&
      let config = Space.decode ~backend g in
      let b =
        Backend.create ~config ~topology:Wsc_hw.Topology.default
          ~clock:(Clock.create ()) ()
      in
      let a = Backend.malloc b ~cpu:0 ~size:64 in
      Backend.free b ~cpu:0 a ~size:64;
      true)

(* clamp is total on arbitrary int arrays (any length, any sign) and
   idempotent; inactive genes are frozen at baseline. *)
let clamp_total_idempotent =
  QCheck.Test.make ~name:"space_clamp_total_and_idempotent" ~count:200
    QCheck.(pair small_int (list int))
    (fun (bk, raw) ->
      let backend = backend_of_int bk in
      let g = Space.clamp ~backend (Array.of_list raw) in
      Array.length g = Space.num_genes
      && g = Space.clamp ~backend g
      && Array.for_all
           (fun i ->
             (g.(i) >= 0 && g.(i) < Space.cardinality i)
             && (Space.active backend i || g.(i) = Space.baseline.(i)))
           (Array.init Space.num_genes Fun.id))

let test_baseline_decodes_to_paper_default () =
  List.iter
    (fun backend ->
      let cfg = Space.decode ~backend Space.baseline in
      check_string
        ("baseline genome is the paper default under "
        ^ Config.backend_name backend)
        (Config.describe (Config.with_backend backend Config.baseline))
        (Config.describe cfg))
    Config.all_backends;
  check_string "baseline describes as paper-default" "paper-default"
    (Space.describe Space.baseline)

(* The rival backends only feel the shared reclaim knobs: every
   tcmalloc-specific gene must be inactive under them. *)
let test_rival_gating () =
  List.iter
    (fun backend ->
      let active =
        List.filter (Space.active backend)
          (List.init Space.num_genes Fun.id)
      in
      check_int
        (Config.backend_name backend ^ " searches only the shared knobs")
        2 (List.length active);
      List.iter
        (fun i ->
          check_bool (Space.gene_name i ^ " is shared") true
            (List.mem (Space.gene_name i)
               [ "reclaim_retries"; "reclaim_min_target" ]))
        active)
    [ Config.Rpmalloc; Config.Jemalloc ]

let mutate_moves =
  QCheck.Test.make ~name:"space_mutate_always_changes_an_active_gene" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Space.random ~backend:Config.Tcmalloc rng in
      Space.mutate ~backend:Config.Tcmalloc rng g <> g)

(* {1 Pareto archive} *)

let entry_gen =
  QCheck.Gen.(
    map2
      (fun rss ns ->
        { Pareto.e_genome = [| rss mod 7; ns mod 5 |];
          e_rss = 1 + (rss mod 1_000_000);
          e_ns = float_of_int (1 + (ns mod 1000)) *. 10.0;
        })
      nat nat)

let entries_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 120) entry_gen)

let front_never_dominated =
  QCheck.Test.make ~name:"pareto_front_retains_no_dominated_member" ~count:200
    entries_arb
    (fun es ->
      let t = Pareto.create () in
      List.iter (Pareto.insert t) es;
      let front = Pareto.front t in
      List.for_all
        (fun e ->
          List.for_all (fun o -> o == e || not (Pareto.dominates o e)) front)
        front
      && List.length front > 0)

let insertion_order_independent =
  QCheck.Test.make ~name:"pareto_archive_is_insertion_order_independent" ~count:200
    QCheck.(pair small_int entries_arb)
    (fun (seed, es) ->
      let a = Pareto.create () in
      List.iter (Pareto.insert a) es;
      let b = Pareto.create () in
      let shuffled =
        let rng = Rng.create seed in
        let arr = Array.of_list es in
        for i = Array.length arr - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      List.iter (Pareto.insert b) shuffled;
      Pareto.entries a = Pareto.entries b && Pareto.front a = Pareto.front b)

let insert_idempotent =
  QCheck.Test.make ~name:"pareto_insert_is_idempotent" ~count:100 entries_arb
    (fun es ->
      let a = Pareto.create () in
      List.iter (Pareto.insert a) es;
      let before = Pareto.entries a in
      List.iter (Pareto.insert a) es;
      before = Pareto.entries a)

(* {1 Search determinism} *)

let small_spec strategy =
  {
    Tuner.sp_seed = 9;
    sp_budget = 18;
    sp_batch = 6;
    sp_strategy = strategy;
    sp_backend = Config.Tcmalloc;
  }

let front_fingerprint report =
  String.concat "\n"
    (List.map
       (fun (e : Pareto.entry) ->
         Printf.sprintf "%s %d %.6f" (Space.key e.Pareto.e_genome)
           e.Pareto.e_rss e.Pareto.e_ns)
       report.Tuner.rp_front)

let test_same_seed_same_front () =
  let ev = Lazy.force events in
  List.iter
    (fun strategy ->
      let r1 = Tuner.run ~jobs:1 ~events:ev (small_spec strategy) in
      let r2 = Tuner.run ~jobs:1 ~events:ev (small_spec strategy) in
      check_string
        (Tuner.strategy_name strategy ^ ": same seed, same front")
        (front_fingerprint r1) (front_fingerprint r2);
      check_bool "budget exhausted" true r1.Tuner.rp_finished;
      check_int "evals = budget" 18 r1.Tuner.rp_evals)
    [ Tuner.Sweep; Tuner.Hillclimb; Tuner.Evolve ]

let test_jobs_invariance () =
  let ev = Lazy.force events in
  let r1 = Tuner.run ~jobs:1 ~events:ev (small_spec Tuner.Evolve) in
  let r4 = Tuner.run ~jobs:4 ~events:ev (small_spec Tuner.Evolve) in
  check_string "jobs 4 = jobs 1" (Tuner.to_json r1) (Tuner.to_json r4)

let test_kill_and_resume_equals_uninterrupted () =
  let ev = Lazy.force events in
  let spec = small_spec Tuner.Evolve in
  let straight = Tuner.run ~jobs:2 ~events:ev spec in
  (* Cut after one generation, checkpoint through the persist layer (the
     Marshal round-trip), then resume to budget exhaustion. *)
  let path = Filename.temp_file "tune" ".wsnap" in
  let partial = Tuner.run ~jobs:2 ~max_generations:1 ~events:ev spec in
  check_bool "partial run is unfinished" false partial.Tuner.rp_finished;
  let saved = ref false in
  let (_ : Tuner.report) =
    Tuner.run ~jobs:2 ~max_generations:1
      ~on_generation:(fun ~generation:_ st ->
        Tuner.save_checkpoint st ~path;
        saved := true)
      ~events:ev spec
  in
  check_bool "checkpoint hook fired" true !saved;
  let st = Tuner.load_checkpoint ~path in
  check_int "checkpoint holds one generation" 1 (Tuner.generations st);
  let resumed = Tuner.run ~jobs:2 ~resume:st ~events:ev spec in
  Sys.remove path;
  check_string "kill + resume = uninterrupted"
    (Tuner.to_json straight) (Tuner.to_json resumed);
  (* Resuming against a different spec or trace must be rejected. *)
  (try
     ignore
       (Tuner.run ~jobs:1 ~resume:st ~events:ev
          { spec with Tuner.sp_seed = spec.Tuner.sp_seed + 1 });
     Alcotest.fail "resume against a different spec was accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Tuner.run ~jobs:1 ~resume:st
         ~events:(Array.sub ev 0 (Array.length ev / 2))
         spec);
    Alcotest.fail "resume against a different trace was accepted"
  with Invalid_argument _ -> ()

let test_best_member_comes_from_front () =
  let ev = Lazy.force events in
  let r = Tuner.run ~jobs:2 ~events:ev (small_spec Tuner.Evolve) in
  check_bool "best is a front member" true
    (List.exists (fun e -> e = r.Tuner.rp_best) r.Tuner.rp_front);
  if r.Tuner.rp_dominates then begin
    check_bool "dominating best beats baseline RSS" true
      (r.Tuner.rp_best.Pareto.e_rss < r.Tuner.rp_baseline.Pareto.e_rss);
    check_bool "dominating best is no slower" true
      (r.Tuner.rp_best.Pareto.e_ns <= r.Tuner.rp_baseline.Pareto.e_ns)
  end

(* {1 Guide-table construction hoisting} *)

(* The replay fan-out shares one preloaded event array and builds no Dist
   guide tables at all; a campaign builds exactly one Zipf popularity
   sampler per run, however many machines it spins up. *)
let test_replay_fanout_builds_no_tables () =
  let ev = Lazy.force events in
  let configs =
    [ ("baseline", Config.baseline);
      ("small-cache", { Config.baseline with Config.per_cpu_cache_bytes = Units.mib });
    ]
  in
  let before = Dist.table_builds () in
  let results = Replay.run_configs_preloaded ~jobs:2 ~configs ev in
  check_int "replay fan-out builds zero guide tables" 0
    (Dist.table_builds () - before);
  check_int "both arms replayed" 2 (List.length results)

let campaign_build_delta machines =
  let spec =
    {
      Campaign.default_spec with
      Campaign.seed = 5;
      machines;
      duration_ns = 0.05 *. Units.sec;
      shard_size = 4;
    }
  in
  let before = Dist.table_builds () in
  let (_ : Campaign.result) = Campaign.run ~jobs:2 spec in
  Dist.table_builds () - before

let test_campaign_builds_one_sampler () =
  let d3 = campaign_build_delta 3 in
  let d6 = campaign_build_delta 6 in
  check_int "guide-table builds independent of machine count" d3 d6;
  check_int "campaign builds exactly one popularity sampler" 1 d3

(* {1 Golden checks against the committed artifacts} *)

(* `dune runtest` runs in _build/default/test with the committed files
   declared as deps one directory up; a hand launch from the repo root
   finds them in place.  Anywhere else the file is missing, and a golden
   with nothing to compare against fails rather than passes. *)
let repo_file name =
  match List.find_opt Sys.file_exists [ Filename.concat ".." name; name ] with
  | Some path -> path
  | None ->
    Alcotest.failf "committed %s not found from %s or its parent" name (Sys.getcwd ())

let committed name = In_channel.with_open_bin (repo_file name) In_channel.input_all

(* All twelve arena cells at seed 42, rendered, equal the committed
   BENCH_arena.json as one string: a changed cell, a dropped scenario or
   backend, and an extra committed cell all fail. *)
let test_arena_cells_match_committed () =
  check_string "BENCH_arena.json" (committed "BENCH_arena.json")
    (Arena.to_json (Arena.run ~seed:42 ()))

let pinned_events = lazy (Replay.preload (repo_file "bench/tune_pinned.wtrace"))

(* The default search and the plateau sweeps on the pinned trace, as
   `bench/main.exe tune` writes them to BENCH_tune.json. *)
let tune_golden ~jobs =
  let events = Lazy.force pinned_events in
  let spec = Tuner.default_spec in
  let report = Tuner.run ~jobs ~events spec in
  let sweeps = Tuner.plateau_sweeps ~jobs ~backend:spec.Tuner.sp_backend events in
  (report, Tuner.to_json ~sweeps report)

let tune_jobs1 = lazy (tune_golden ~jobs:1)

(* The search's paper-default entry is a plain replay of the pinned trace
   under Config.baseline, and the committed BENCH_tune.json's baseline line
   is its rendering. *)
let test_tune_baseline_matches_committed () =
  let r = Replay.run_preloaded ~config:Config.baseline (Lazy.force pinned_events) in
  let report, json = Lazy.force tune_jobs1 in
  let b = report.Tuner.rp_baseline in
  check_int "baseline peak RSS" r.Replay.peak_rss_bytes b.Pareto.e_rss;
  Alcotest.(check (float 0.0)) "baseline malloc ns" r.Replay.malloc_ns b.Pareto.e_ns;
  let baseline_line text =
    List.find_opt
      (String.starts_with ~prefix:"  \"baseline\": ")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check (option string))
    "baseline line" (baseline_line (committed "BENCH_tune.json")) (baseline_line json)

(* The whole committed BENCH_tune.json at --jobs 1 and --jobs 4, and the
   acceptance gate: the search spends its budget and its best member
   strictly dominates the paper default. *)
let test_tune_search_matches_committed () =
  let text = committed "BENCH_tune.json" in
  List.iter
    (fun (jobs, (report, json)) ->
      let at what = Printf.sprintf "%s at jobs %d" what jobs in
      check_string (at "BENCH_tune.json") text json;
      check_bool (at "search finished") true report.Tuner.rp_finished;
      check_bool (at "best dominates the paper default") true report.Tuner.rp_dominates)
    [ (1, Lazy.force tune_jobs1); (4, tune_golden ~jobs:4) ]

let suite =
  [
    ( "tune.space",
      [
        qcheck bytes_decode_total;
        qcheck clamp_total_idempotent;
        qcheck mutate_moves;
        Alcotest.test_case "baseline_decodes_to_paper_default" `Quick
          test_baseline_decodes_to_paper_default;
        Alcotest.test_case "rival_backends_gate_to_shared_knobs" `Quick
          test_rival_gating;
      ] );
    ( "tune.pareto",
      [
        qcheck front_never_dominated;
        qcheck insertion_order_independent;
        qcheck insert_idempotent;
      ] );
    ( "tune.search",
      [
        Alcotest.test_case "same_seed_same_front" `Quick test_same_seed_same_front;
        Alcotest.test_case "jobs4_equals_jobs1" `Quick test_jobs_invariance;
        Alcotest.test_case "kill_and_resume_equals_uninterrupted" `Quick
          test_kill_and_resume_equals_uninterrupted;
        Alcotest.test_case "best_comes_from_front" `Quick
          test_best_member_comes_from_front;
      ] );
    ( "tune.dist-hoisting",
      [
        Alcotest.test_case "replay_fanout_builds_no_tables" `Quick
          test_replay_fanout_builds_no_tables;
        Alcotest.test_case "campaign_builds_one_sampler" `Quick
          test_campaign_builds_one_sampler;
      ] );
    ( "tune.golden",
      [
        Alcotest.test_case "arena_cells_match_committed" `Quick
          test_arena_cells_match_committed;
        Alcotest.test_case "tune_baseline_matches_committed" `Quick
          test_tune_baseline_matches_committed;
        Alcotest.test_case "tune_search_matches_committed" `Quick
          test_tune_search_matches_committed;
      ] );
  ]
