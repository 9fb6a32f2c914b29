open Wsc_substrate
module Config = Wsc_tcmalloc.Config
module Replay = Wsc_trace.Replay
module Persist = Wsc_persist.Persist

type strategy = Sweep | Hillclimb | Evolve

let strategy_name = function
  | Sweep -> "sweep"
  | Hillclimb -> "hillclimb"
  | Evolve -> "evolve"

let strategy_of_name = function
  | "sweep" -> Some Sweep
  | "hillclimb" -> Some Hillclimb
  | "evolve" -> Some Evolve
  | _ -> None

type spec = {
  sp_seed : int;
  sp_budget : int;
  sp_batch : int;
  sp_strategy : strategy;
  sp_backend : Config.backend_kind;
}

let default_spec =
  { sp_seed = 42; sp_budget = 120; sp_batch = 24; sp_strategy = Evolve;
    sp_backend = Config.Tcmalloc }

let validate_spec spec =
  if spec.sp_budget < 1 then invalid_arg "Tune: budget must be at least 1";
  if spec.sp_batch < 1 then invalid_arg "Tune: batch must be at least 1";
  if spec.sp_seed < 0 then invalid_arg "Tune: seed must be non-negative"

(* Cheap deterministic identity of (spec, trace): a resumed search must
   be continuing the same search.  The trace part folds event counts and
   magnitudes, so swapping the trace file under a checkpoint is caught
   even when lengths happen to match. *)
let trace_fingerprint events =
  let allocs = ref 0 and frees = ref 0 and retires = ref 0 in
  let bytes = ref 0 and adv = ref 0.0 in
  Array.iter
    (fun ev ->
      match ev with
      | Wsc_workload.Trace.Alloc { size; _ } ->
        incr allocs;
        bytes := !bytes + size
      | Wsc_workload.Trace.Free _ -> incr frees
      | Wsc_workload.Trace.Advance { dt_ns } -> adv := !adv +. dt_ns
      | Wsc_workload.Trace.Retire _ -> incr retires)
    events;
  Printf.sprintf "e%d.a%d.f%d.r%d.b%d.t%.0f" (Array.length events) !allocs
    !frees !retires !bytes !adv

let spec_digest spec ~events =
  Printf.sprintf "tune.%s.%s.s%d.b%d.w%d.%s" (strategy_name spec.sp_strategy)
    (Config.backend_name spec.sp_backend)
    spec.sp_seed spec.sp_budget spec.sp_batch (trace_fingerprint events)

(* Everything the search loop carries between generations.  Closure-free
   by construction (plain records, int arrays, hashtables of scalars, the
   Rng state record), so checkpoints [Marshal] without flags and stay
   readable across binaries. *)
type state = {
  st_digest : string;
  st_rng : Rng.t;
  st_archive : Pareto.t;
  st_cache : (string, int * float) Hashtbl.t;  (* genome key -> objectives *)
  mutable st_evals : int;
  mutable st_gens : int;
  mutable st_baseline : (int * float) option;
  mutable st_best : (Space.genome * (int * float) * float) option;
      (* lowest-scalar evaluation so far: (genome, objectives, scalar) *)
  mutable st_pop : Space.genome array;  (* evolve population *)
  mutable st_finished : bool;
}

let evaluations st = st.st_evals
let generations st = st.st_gens
let finished st = st.st_finished

let fresh_state digest spec =
  {
    st_digest = digest;
    st_rng = Rng.create (spec.sp_seed lxor 0x7075_6e65);
    st_archive = Pareto.create ();
    st_cache = Hashtbl.create 256;
    st_evals = 0;
    st_gens = 0;
    st_baseline = None;
    st_best = None;
    st_pop = [||];
    st_finished = false;
  }

(* Scalarization for selection pressure only (the archive is what the
   search reports): the product of both objectives normalized by the
   paper default, so "half the RSS at equal speed" and "equal RSS at
   half the allocator time" score the same. *)
let scalar st ~rss ~ns =
  match st.st_baseline with
  | None -> infinity
  | Some (brss, bns) ->
    let brss = float_of_int (max 1 brss) and bns = Float.max 1.0 bns in
    float_of_int rss /. brss *. (Float.max 1.0 ns /. bns)

(* --- Candidate proposal ------------------------------------------------- *)

(* One generation's worth of candidates.  All randomness is drawn here,
   on the coordinating domain, in a fixed order — workers never touch an
   RNG — so the search trajectory is a function of (spec, trace) alone,
   independent of [jobs].  Returns candidates in draw order; an empty
   return means the strategy is out of moves and the search stops. *)
let propose spec st =
  let remaining = spec.sp_budget - st.st_evals in
  if remaining <= 0 then []
  else begin
    let want = min spec.sp_batch remaining in
    let backend = spec.sp_backend in
    let seen = Hashtbl.create 32 in
    let fresh g =
      let k = Space.key g in
      (not (Hashtbl.mem st.st_cache k)) && not (Hashtbl.mem seen k)
    in
    let take acc g =
      if List.length acc < want && fresh g then begin
        Hashtbl.replace seen (Space.key g) ();
        g :: acc
      end
      else acc
    in
    (* Top up with random genomes; bounded tries so a nearly exhausted
       space terminates instead of spinning. *)
    let fill acc =
      let acc = ref acc in
      let tries = ref 0 in
      while List.length !acc < want && !tries < want * 64 do
        incr tries;
        acc := take !acc (Space.random ~backend st.st_rng)
      done;
      !acc
    in
    let tournament scored =
      let n = Array.length scored in
      let best = ref scored.(Rng.int st.st_rng n) in
      for _ = 2 to 3 do
        let c = scored.(Rng.int st.st_rng n) in
        if snd c < snd !best then best := c
      done;
      fst !best
    in
    let picked =
      if st.st_gens = 0 then begin
        (* Every strategy opens with the paper default (the report's
           reference point and the dominance gate's anchor) plus a
           random sweep. *)
        let acc = fill (take [] Space.baseline) in
        st.st_pop <- Array.of_list (List.rev acc);
        acc
      end
      else
        match spec.sp_strategy with
        | Sweep -> fill []
        | Hillclimb -> (
          let cursor =
            match st.st_best with
            | Some (g, _, _) -> g
            | None -> Space.baseline
          in
          let moves = Space.neighbors ~backend cursor in
          match List.fold_left take [] moves with
          | [] -> fill []  (* local optimum fully explored: random restart *)
          | acc -> acc)
        | Evolve -> (
          let scored =
            Array.to_list st.st_pop
            |> List.filter_map (fun g ->
                   match Hashtbl.find_opt st.st_cache (Space.key g) with
                   | Some (rss, ns) -> Some (g, scalar st ~rss ~ns)
                   | None -> None)
            |> Array.of_list
          in
          if Array.length scored = 0 then fill []
          else begin
            (* Elitism: the incumbent best stays in the population (it
               is already cached, so it costs no evaluation). *)
            let pop = ref [] in
            (match st.st_best with
            | Some (g, _, _) -> pop := [ g ]
            | None -> ());
            let tries = ref 0 in
            while
              List.length !pop < spec.sp_batch && !tries < spec.sp_batch * 8
            do
              incr tries;
              let child =
                Space.mutate ~backend st.st_rng
                  (Space.crossover st.st_rng (tournament scored)
                     (tournament scored))
              in
              if not (List.exists (fun g -> g = child) !pop) then
                pop := child :: !pop
            done;
            let pop = List.rev !pop in
            st.st_pop <- Array.of_list pop;
            List.fold_left take [] pop
          end)
    in
    List.rev picked
  end

(* Results arrive in candidate order (the ordered-reduction rule), and
   this merge advances state strictly in that order, so the trajectory
   is identical for any [jobs]. *)
let merge st candidates results =
  List.iter2
    (fun g ((_, r) : string * Replay.result) ->
      let rss = r.Replay.peak_rss_bytes and ns = r.Replay.malloc_ns in
      Hashtbl.replace st.st_cache (Space.key g) (rss, ns);
      Pareto.insert st.st_archive { Pareto.e_genome = g; e_rss = rss; e_ns = ns };
      st.st_evals <- st.st_evals + 1;
      if g = Space.baseline then st.st_baseline <- Some (rss, ns);
      if st.st_baseline <> None then begin
        let s = scalar st ~rss ~ns in
        match st.st_best with
        | Some (_, _, bs) when bs <= s -> ()
        | _ -> st.st_best <- Some (g, (rss, ns), s)
      end)
    candidates results

(* --- Results ------------------------------------------------------------ *)

type report = {
  rp_strategy : strategy;
  rp_backend : Config.backend_kind;
  rp_seed : int;
  rp_budget : int;
  rp_batch : int;
  rp_trace : string;
  rp_evals : int;
  rp_generations : int;
  rp_finished : bool;
  rp_baseline : Pareto.entry;
  rp_front : Pareto.entry list;
  rp_best : Pareto.entry;
  rp_dominates : bool;
}

let report_of spec ~trace st =
  let base =
    match st.st_baseline with
    | Some (rss, ns) -> { Pareto.e_genome = Space.baseline; e_rss = rss; e_ns = ns }
    | None -> invalid_arg "Tune: search never evaluated the paper default"
  in
  let front = Pareto.front st.st_archive in
  let dominators =
    List.filter
      (fun (e : Pareto.entry) ->
        e.Pareto.e_rss < base.Pareto.e_rss && e.Pareto.e_ns <= base.Pareto.e_ns)
      front
  in
  let pick = function
    | [] -> base
    | e :: rest ->
      List.fold_left
        (fun acc c ->
          let s e = scalar st ~rss:e.Pareto.e_rss ~ns:e.Pareto.e_ns in
          if s c < s acc then c else acc)
        e rest
  in
  let best = match dominators with [] -> pick front | ds -> pick ds in
  {
    rp_strategy = spec.sp_strategy;
    rp_backend = spec.sp_backend;
    rp_seed = spec.sp_seed;
    rp_budget = spec.sp_budget;
    rp_batch = spec.sp_batch;
    rp_trace = trace;
    rp_evals = st.st_evals;
    rp_generations = st.st_gens;
    rp_finished = st.st_finished;
    rp_baseline = base;
    rp_front = front;
    rp_best = best;
    rp_dominates = dominators <> [];
  }

(* --- The search loop ---------------------------------------------------- *)

let run ?jobs ?(on_generation = fun ~generation:_ _ -> ()) ?resume
    ?max_generations ~events spec =
  validate_spec spec;
  let digest = spec_digest spec ~events in
  let st =
    match resume with
    | None -> fresh_state digest spec
    | Some st ->
      if st.st_digest <> digest then
        invalid_arg
          "Tune.run: checkpoint belongs to a different search (spec or trace \
           mismatch)";
      st
  in
  let gens_run = ref 0 in
  let stopped = ref false in
  while (not !stopped) && not st.st_finished do
    (match propose spec st with
    | [] -> st.st_finished <- true
    | candidates ->
      let configs =
        List.map
          (fun g -> (Space.key g, Space.decode ~backend:spec.sp_backend g))
          candidates
      in
      let results = Replay.run_configs_preloaded ?jobs ~configs events in
      merge st candidates results;
      st.st_gens <- st.st_gens + 1;
      if st.st_evals >= spec.sp_budget then st.st_finished <- true;
      on_generation ~generation:st.st_gens st;
      incr gens_run;
      match max_generations with
      | Some m when !gens_run >= m -> stopped := true
      | _ -> ());
    ()
  done;
  report_of spec ~trace:(trace_fingerprint events) st

(* --- Single-knob sweeps (plateau validation) ---------------------------- *)

let sweep_gene ?jobs ~backend ~gene ~base events =
  let base = Space.clamp ~backend base in
  let genomes =
    List.init (Space.cardinality gene) (fun v ->
        let g = Array.copy base in
        g.(gene) <- v;
        g)
  in
  let configs =
    List.map (fun g -> (Space.key g, Space.decode ~backend g)) genomes
  in
  let results = Replay.run_configs_preloaded ?jobs ~configs events in
  List.map2
    (fun g ((_, r) : string * Replay.result) ->
      ( Space.render gene g.(gene),
        {
          Pareto.e_genome = g;
          e_rss = r.Replay.peak_rss_bytes;
          e_ns = r.Replay.malloc_ns;
        } ))
    genomes results

(* The Sec. 4 L/C plateau: one knob swept with the optimization that owns
   it switched on, every other gene at the paper default. *)
let plateau_sweeps ?jobs ~backend events =
  let gene name =
    let rec go i =
      if i >= Space.num_genes then invalid_arg ("Tune: no gene named " ^ name)
      else if Space.gene_name i = name then i
      else go (i + 1)
    in
    go 0
  in
  let sweep ~knob ~owner =
    let base = Array.copy Space.baseline in
    base.(gene owner) <- 1;
    (knob, sweep_gene ?jobs ~backend ~gene:(gene knob) ~base events)
  in
  [
    sweep ~knob:"cfl_lists" ~owner:"span_prioritization";
    sweep ~knob:"lifetime_threshold" ~owner:"lifetime_filler";
  ]

(* --- Checkpoints -------------------------------------------------------- *)

let save_checkpoint ?storage ?(note = "") st ~path =
  Persist.save_blob ?storage ~note ~kind:"tune"
    ~progress:(float_of_int st.st_evals)
    (Marshal.to_string st []) ~path

let load_checkpoint ~path =
  let blob, _ = Persist.load_blob ~kind:"tune" ~path in
  try (Marshal.from_string blob 0 : state)
  with Failure reason ->
    raise (Persist.Corrupt { section = "state"; reason })

(* --- Rendering ---------------------------------------------------------- *)

(* One archive entry's JSON fields. *)
let entry_key (e : Pareto.entry) =
  Printf.sprintf "\"genome\":\"%s\",\"rss_bytes\":%d,\"malloc_ms\":%.6f,\"config\":\"%s\""
    (Space.key e.Pareto.e_genome)
    e.Pareto.e_rss
    (e.Pareto.e_ns /. 1e6)
    (Space.describe e.Pareto.e_genome)

let header_key r =
  Printf.sprintf
    "\"strategy\":\"%s\",\"backend\":\"%s\",\"seed\":%d,\"budget\":%d,\"batch\":%d,\"trace\":\"%s\",\"evals\":%d,\"generations\":%d,\"dominates_baseline\":%b"
    (strategy_name r.rp_strategy)
    (Config.backend_name r.rp_backend)
    r.rp_seed r.rp_budget r.rp_batch r.rp_trace r.rp_evals r.rp_generations
    r.rp_dominates

let to_json ?(sweeps = []) r =
  let list = function
    | [] -> "  ]"
    | rows -> String.concat ",\n" (List.map (Printf.sprintf "    {%s}") rows) ^ "\n  ]"
  in
  let sections =
    [
      "  \"benchmark\": \"tune\"";
      Printf.sprintf "  \"search\": {%s}" (header_key r);
      Printf.sprintf "  \"baseline\": {%s}" (entry_key r.rp_baseline);
      Printf.sprintf "  \"best\": {%s}" (entry_key r.rp_best);
      "  \"front\": [\n" ^ list (List.map entry_key r.rp_front);
    ]
    @ List.map
        (fun (name, cells) ->
          Printf.sprintf "  \"%s\": [\n" name
          ^ list
              (List.map
                 (fun (label, e) ->
                   Printf.sprintf "\"value\":\"%s\",%s" label (entry_key e))
                 cells))
        sweeps
  in
  "{\n" ^ String.concat ",\n" sections ^ "\n}\n"

let pp_front ppf r =
  let pct x base =
    if base = 0.0 then 0.0 else (x -. base) /. base *. 100.0
  in
  let brss = float_of_int r.rp_baseline.Pareto.e_rss in
  let bns = r.rp_baseline.Pareto.e_ns in
  Format.fprintf ppf "search  : %s over %s, seed %d, %d/%d evaluations in %d generations@."
    (strategy_name r.rp_strategy)
    (Config.backend_name r.rp_backend)
    r.rp_seed r.rp_evals r.rp_budget r.rp_generations;
  Format.fprintf ppf "baseline: rss %s, alloc cpu %s@."
    (Units.bytes_to_string r.rp_baseline.Pareto.e_rss)
    (Units.duration_to_string r.rp_baseline.Pareto.e_ns);
  Format.fprintf ppf "%-10s %12s %8s %12s %8s  %s@." "" "peak_rss" "drss%"
    "alloc_cpu" "dns%" "config";
  List.iter
    (fun (e : Pareto.entry) ->
      let tag = if e = r.rp_best then "best ->" else "" in
      Format.fprintf ppf "%-10s %12d %7.2f%% %12.0f %7.2f%%  %s@." tag
        e.Pareto.e_rss
        (pct (float_of_int e.Pareto.e_rss) brss)
        e.Pareto.e_ns (pct e.Pareto.e_ns bns)
        (Space.describe e.Pareto.e_genome))
    r.rp_front;
  Format.fprintf ppf "verdict : best %s the paper default@."
    (if r.rp_dominates then "strictly dominates" else "does NOT dominate")
