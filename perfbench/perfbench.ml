(* The repository benchmark.

     perfbench --workload simulate|trace|campaign|all --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) print the end-to-end metrics; a traced run
   (--trace 1) is a separate invocation that splits the workload's host
   time across the library's layers.  Every run checks its simulated
   outputs and prints, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics. *)

open Common

let usage =
  "perfbench --workload simulate|trace|campaign|all [--seed N] [--seconds S] [--trace 0|1] \
   [--work-dir DIR] | --describe"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline ("usage: " ^ usage);
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  work_dir : string;
  describe : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--describe" :: rest -> go { a with describe = true } rest
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> go { a with seed } rest
      | None -> die "--seed wants an integer, got %S" v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 && f <= 600.0 -> go { a with seconds = f } rest
      | _ -> die "--seconds wants a number in (0, 600], got %S" v)
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { a with traced = false } rest
      | "1" -> go { a with traced = true } rest
      | _ -> die "--trace wants 0 or 1, got %S" v)
    | "--work-dir" :: v :: rest -> go { a with work_dir = v } rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go
    {
      workload = "all";
      seed = Reference.default_seed;
      seconds = 10.0;
      traced = false;
      work_dir = ".perfbench_work";
      describe = false;
    }
    (List.tl (Array.to_list argv))

let workloads = [ ("simulate", Sim.run); ("trace", Tracewl.run); ("campaign", Camp.run) ]

let metric_json (m : Catalog.metric) =
  Json.Obj
    ([
       ("name", Json.String m.Catalog.name);
       ("unit", Json.String m.Catalog.unit);
       ("better", Json.String (Catalog.better_name m.Catalog.better));
       ("kind", Json.String (Catalog.kind_name m.Catalog.kind));
       ("layer", Json.String m.Catalog.layer);
     ]
    @ (match m.Catalog.bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])
    @ (if m.Catalog.moves = [] then []
       else
         [
           ( "moves",
             Json.List
               (List.map
                  (fun (metric, wls) ->
                    Json.Obj
                      [
                        ("metric", Json.String metric);
                        ("workloads", Json.List (List.map (fun w -> Json.String w) wls));
                      ])
                  m.Catalog.moves) );
         ])
    @ [ ("doc", Json.String m.Catalog.doc) ])

let describe () =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("end_to_end", Json.List (List.map metric_json Catalog.end_to_end));
            ("per_layer", Json.List (List.map metric_json Catalog.per_layer));
          ]))

(* The metric set a run reports: every end-to-end metric untraced, every
   per-layer metric traced.  A layer the workload bypasses did no work
   and reads 0. *)
let complete ~traced (o : outcome) ~correct =
  let set = if traced then Catalog.per_layer else Catalog.end_to_end in
  List.map
    (fun (m : Catalog.metric) ->
      let v =
        match m.Catalog.name with
        | "success_rate" ->
          if not correct then 0.0
          else if o.attempted = 0 then 1.0
          else 1.0 -. (float_of_int o.failed /. float_of_int o.attempted)
        | name -> Option.value (List.assoc_opt name o.metrics) ~default:0.0
      in
      (m, v))
    set

let print_outcome ~(a : args) (o : outcome) =
  let correct = List.for_all (fun c -> c.ok) o.checks in
  Printf.printf "== %s  seed %d  %s  %.0f s\n" o.workload a.seed
    (if a.traced then "traced" else "untraced")
    a.seconds;
  List.iter (fun n -> Printf.printf "   %s\n" n) o.notes;
  Printf.printf "   digest %s\n" o.digest;
  List.iter
    (fun c -> Printf.printf "   [%s] %s: %s\n" (if c.ok then " ok " else "FAIL") c.check c.detail)
    o.checks;
  let failed = if correct then o.failed else o.attempted in
  Printf.printf "   error_rate %.6g (%d failed of %d attempted)\n"
    (if o.attempted = 0 then 0.0 else float_of_int failed /. float_of_int o.attempted)
    failed o.attempted;
  let values = complete ~traced:a.traced o ~correct in
  List.iter
    (fun ((m : Catalog.metric), v) ->
      Printf.printf "   %-44s %16.6g %-9s %s\n" m.Catalog.name v m.Catalog.unit
        (Catalog.kind_name m.Catalog.kind))
    values;
  if o.breakdown <> [] then begin
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 o.breakdown in
    Printf.printf "   host ns per event by layer (sums to the untraced %.1f ns/event):\n" total;
    List.iter
      (fun (layer, v) ->
        Printf.printf "     %-38s %10.1f  %5.1f%%\n" layer v (100.0 *. v /. total))
      o.breakdown
  end;
  (correct, failed, values)

let record ~(a : args) (o : outcome) ~correct values =
  Json.Obj
    [
      ("workload", Json.String o.workload);
      ("mode", Json.String (if a.traced then "traced" else "untraced"));
      ("seconds", Json.Float a.seconds);
      ("host", Host.record ~seed:a.seed);
      ("digest", Json.String o.digest);
      ("correct", Json.Bool correct);
      ( "checks",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("check", Json.String c.check);
                   ("ok", Json.Bool c.ok);
                   ("detail", Json.String c.detail);
                 ])
             o.checks) );
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Catalog.metric), v) ->
               ( m.Catalog.name,
                 Json.Obj
                   [
                     ("value", Json.Float v);
                     ("unit", Json.String m.Catalog.unit);
                     ("kind", Json.String (Catalog.kind_name m.Catalog.kind));
                   ] ))
             values) );
      ("breakdown_ns_per_event", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.breakdown));
    ]

let () =
  let a = parse Sys.argv in
  if a.describe then begin
    describe ();
    exit 0
  end;
  let selected =
    if a.workload = "all" then workloads
    else
      match List.assoc_opt a.workload workloads with
      | Some run -> [ (a.workload, run) ]
      | None -> die "unknown workload %S" a.workload
  in
  if not Host.wallclock_trusted then
    Printf.printf
      "WARNING: built with the %s profile; its wall-clock numbers are not comparable with \
       release builds and must not be recorded as a baseline.\n"
      Host.profile;
  Printf.printf "host: %s\n%!" (Json.to_string (Host.record ~seed:a.seed));
  fresh_dir a.work_dir;
  let settings = { seed = a.seed; seconds = a.seconds; traced = a.traced; work_dir = a.work_dir } in
  let results =
    Fun.protect
      ~finally:(fun () -> remove_tree a.work_dir)
      (fun () ->
        List.map
          (fun (_, run) ->
            let o = run settings in
            let correct, failed, values = print_outcome ~a o in
            Printf.printf "perfbench-record %s\n%!"
              (Json.to_string (record ~a o ~correct values));
            (o, correct, failed, values))
          selected)
  in
  let prefix (o : outcome) = if List.length results > 1 then o.workload ^ "." else "" in
  let metrics =
    List.concat_map
      (fun (o, _, _, values) ->
        List.map
          (fun ((m : Catalog.metric), v) ->
            ( prefix o ^ m.Catalog.name,
              Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.Catalog.unit) ] ))
          values)
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (List.for_all (fun (_, c, _, _) -> c) results));
            ( "attempted",
              Json.Int (List.fold_left (fun n ((o : outcome), _, _, _) -> n + o.attempted) 0 results) );
            ("failed", Json.Int (List.fold_left (fun n (_, _, f, _) -> n + f) 0 results));
            ("metrics", Json.Obj metrics);
          ]))
