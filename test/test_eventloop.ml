(* Differential property tests for the event-loop rework: the calendar
   queue against the binary-heap reference, the payload-only drain against
   the keyed drain, the guide-table samplers against straight-line
   reference searches on the same RNG stream, and the unboxed int table
   against a Hashtbl model. *)

open Wsc_substrate

let qcheck t = QCheck_alcotest.to_alcotest t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Calendar vs Event_heap_reference} *)

(* A schedule is a list of steps; keys come from a small pool of magnitudes
   (forcing equal-key collisions) plus a far-future sentinel, and drains
   advance a monotone [now].  Drain bounds and pushed keys are always
   >= the current drain point, matching the driver's usage and both
   modules' contracts. *)
type sched_step =
  | Push of int (* key selector *)
  | Drain of int (* advance selector *)

let sched_gen =
  QCheck.Gen.(
    list_size (int_range 20 300)
      (frequency
         [ (3, map (fun k -> Push k) (int_range 0 23)); (1, map (fun d -> Drain d) (int_range 0 7)) ]))

let sched_arb =
  QCheck.make sched_gen
    ~print:(fun steps ->
      String.concat ";"
        (List.map (function Push k -> Printf.sprintf "P%d" k | Drain d -> Printf.sprintf "D%d" d) steps))

(* Key pool, in units of the level-0 bucket width [w]: exact ties (same
   selector -> same float), offsets well inside one bucket, offsets of
   w - 1, w and w + 1 and of several widths, keys on and just below the
   next bucket boundary (one fractional), one key per coarser wheel, the
   startup-burst sentinel, and a key past the last representable tick. *)
let width = float_of_int Calendar.bucket_width_ns
let next_boundary now = (floor (now /. width) +. 1.0) *. width

let key_of_selector ~now = function
  | 0 | 1 -> now +. 1.0 (* frequent exact ties, same bucket as now *)
  | 2 -> now +. 100.0
  | 3 -> now +. 999.0
  | 4 -> now +. 5_000.0
  | 5 -> now +. 300_000.0
  | 6 -> now
  | 7 -> now +. width -. 1.0
  | 8 -> now +. width
  | 9 -> now +. width +. 1.0
  | 10 -> now +. (3.0 *. width)
  | 11 -> now +. (7.5 *. width)
  | 12 -> next_boundary now
  | 13 -> next_boundary now -. 1.0
  | 14 -> next_boundary now -. 0.5
  | k when k <= 21 ->
    (* 1.5 buckets of wheel 1 .. 7: each coarser wheel gets events. *)
    now +. (1.5 *. width *. (32.0 ** float_of_int (k - 14)))
  | 22 -> 1.0e18 (* far-future: startup-burst "lives forever" events *)
  | _ -> 3.0e18 (* beyond the last tick: clamped into the top wheel *)

(* Drain bounds: sub-bucket steps, one 1 ms driver epoch, exactly one
   bucket width, the last whole nanosecond of the current bucket, whole
   buckets, and a jump past the level-0 window (a cascade from wheel 1). *)
let bound_of_selector ~now = function
  | 0 -> now (* drain at now: empty or equal-key-only drains *)
  | 1 -> now +. 512.0
  | 2 -> now +. 4096.0
  | 3 -> now +. 1.0e6
  | 4 -> now +. width
  | 5 -> next_boundary now -. 1.0
  | 6 -> now +. (3.0 *. width)
  | _ -> now +. (40.0 *. width)

let run_schedule steps ~push ~drain =
  let now = ref 0.0 in
  let seq = ref 0 in
  List.iter
    (fun step ->
      match step with
      | Push k ->
        let key = key_of_selector ~now:!now k in
        push key !seq;
        incr seq
      | Drain d ->
        now := bound_of_selector ~now:!now d;
        drain !now)
    steps;
  (* Final full drain flushes the far-future sentinels too. *)
  drain infinity

(* The two queues agree on the delivered key sequence, and within each
   equal-key run deliver the same *set* of events; the calendar
   additionally delivers equal keys in push (FIFO) order, which the heap's
   unstable sift does not promise. *)
let calendar_matches_event_heap =
  QCheck.Test.make ~name:"calendar_matches_event_heap_pop_order" ~count:200 sched_arb
    (fun steps ->
      let cal = Calendar.create () in
      let heap = Event_heap_reference.create () in
      let cal_out = ref [] and heap_out = ref [] in
      run_schedule steps
        ~push:(fun key seq ->
          Calendar.push cal key ~a:seq ~b:(seq * 7) ~c:(seq land 3))
        ~drain:(fun bound ->
          Calendar.drain_until cal bound (fun ~key ~a ~b ~c ->
              cal_out := (key, a, b, c) :: !cal_out));
      run_schedule steps
        ~push:(fun key seq ->
          Event_heap_reference.push heap key ~a:seq ~b:(seq * 7) ~c:(seq land 3))
        ~drain:(fun bound ->
          Event_heap_reference.drain_until heap bound (fun ~key ~a ~b ~c ->
              heap_out := (key, a, b, c) :: !heap_out));
      let cal_out = List.rev !cal_out and heap_out = List.rev !heap_out in
      (* Same key sequence... *)
      List.length cal_out = List.length heap_out
      && List.for_all2 (fun (k1, _, _, _) (k2, _, _, _) -> k1 = k2) cal_out heap_out
      && (* ...same events within each equal-key run... *)
      (let sort l = List.sort compare l in
       sort cal_out = sort heap_out)
      && (* ...and the calendar's ties are FIFO: the push sequence number in
            [a] must ascend within an equal-key run. *)
      (let rec fifo = function
         | (k1, a1, _, _) :: ((k2, a2, _, _) :: _ as rest) ->
           (k1 <> k2 || a1 < a2) && fifo rest
         | _ -> true
       in
       fifo cal_out))

(* [drain_payloads] is [drain_until] minus the key argument: identical
   payload sequence on an identical schedule. *)
let drain_payloads_matches_drain_until =
  QCheck.Test.make ~name:"calendar_drain_payloads_matches_drain_until" ~count:200 sched_arb
    (fun steps ->
      let c1 = Calendar.create () and c2 = Calendar.create () in
      let out1 = ref [] and out2 = ref [] in
      run_schedule steps
        ~push:(fun key seq -> Calendar.push c1 key ~a:seq ~b:seq ~c:seq)
        ~drain:(fun bound ->
          Calendar.drain_until c1 bound (fun ~key:_ ~a ~b ~c -> out1 := (a, b, c) :: !out1));
      run_schedule steps
        ~push:(fun key seq -> Calendar.push c2 key ~a:seq ~b:seq ~c:seq)
        ~drain:(fun bound ->
          Calendar.drain_payloads c2 bound (fun ~a ~b ~c -> out2 := (a, b, c) :: !out2));
      !out1 = !out2)

(* Directed regression for the bucket sort watermark: partially drain a
   bucket, append more equal-key events to it, then finish draining — the
   appended suffix must still be sorted into place (a stale watermark
   would deliver it unsorted). *)
let watermark_resort () =
  let cal = Calendar.create () in
  (* One level-0 bucket: keys within [0, 1024). *)
  Calendar.push cal 30.0 ~a:0 ~b:0 ~c:0;
  Calendar.push cal 10.0 ~a:1 ~b:0 ~c:0;
  Calendar.push cal 20.0 ~a:2 ~b:0 ~c:0;
  let order = ref [] in
  let record ~key:_ ~a ~b:_ ~c:_ = order := a :: !order in
  Calendar.drain_until cal 10.0 record;
  check_int "first partial drain" 1 (List.length !order);
  (* Append into the same (already sorted, partially drained) bucket. *)
  Calendar.push cal 15.0 ~a:3 ~b:0 ~c:0;
  Calendar.push cal 20.0 ~a:4 ~b:0 ~c:0;
  (* equal-key tie with a=2 *)
  Calendar.drain_until cal 1023.0 record;
  Alcotest.(check (list int)) "sorted with FIFO ties" [ 1; 3; 2; 4; 0 ] (List.rev !order)

(* Directed boundary case: keys one below, on and one above bucket edges
   drain exactly up to each bound, including a whole-bucket drain. *)
let bucket_boundaries () =
  let cal = Calendar.create () in
  let w = width in
  List.iteri
    (fun i key -> Calendar.push cal key ~a:i ~b:0 ~c:0)
    [ (2.0 *. w) +. 1.0; w; 2.0 *. w; w -. 1.0; w +. 1.0; (2.0 *. w) -. 1.0 ];
  let drained bound =
    let out = ref [] in
    Calendar.drain_until cal bound (fun ~key ~a:_ ~b:_ ~c:_ -> out := key :: !out);
    List.rev !out
  in
  let check_keys what expect got = Alcotest.(check (list (float 0.0))) what expect got in
  check_keys "up to w - 1" [ w -. 1.0 ] (drained (w -. 1.0));
  check_keys "up to w" [ w ] (drained w);
  check_keys "up to 2w (bucket [w, 2w) whole)" [ w +. 1.0; (2.0 *. w) -. 1.0; 2.0 *. w ]
    (drained (2.0 *. w));
  check_int "one left" 1 (Calendar.length cal);
  check_keys "the rest" [ (2.0 *. w) +. 1.0 ] (drained infinity)

(* {1 Guide-table samplers vs reference searches} *)

(* Straight-line reference samplers replicating the pre-guide-table
   semantics: a linear scan for the bracketing index.  The guide-table
   fast path must map every uniform draw to the same value bit-for-bit. *)
let reference_empirical qs vs u =
  let n = Array.length qs in
  if u <= qs.(0) then vs.(0)
  else if u >= qs.(n - 1) then vs.(n - 1)
  else begin
    let lo = ref 0 in
    while !lo + 1 < n && qs.(!lo + 1) <= u do incr lo done;
    let lo = !lo in
    let q0 = qs.(lo) and q1 = qs.(lo + 1) in
    if q1 -. q0 <= 0.0 then vs.(lo)
    else begin
      let frac = (u -. q0) /. (q1 -. q0) in
      let lv0 = log vs.(lo) and lv1 = log vs.(lo + 1) in
      exp (lv0 +. (frac *. (lv1 -. lv0)))
    end
  end

let reference_pick_index cum u =
  let n = Array.length cum in
  let i = ref 0 in
  while !i < n - 1 && cum.(!i) < u do incr i done;
  !i

let points_gen =
  (* Strictly increasing quantiles in (0,1), positive values. *)
  QCheck.Gen.(
    map
      (fun (seed, n) ->
        let rng = Rng.create (1 + abs seed) in
        let qs =
          Array.init n (fun _ -> 0.001 +. (0.998 *. Rng.unit_float rng))
          |> Array.to_list
          |> List.sort_uniq compare
        in
        let qs = match qs with [ q ] -> [ q /. 2.0; q ] | qs -> qs in
        List.map (fun q -> (q, 1.0 +. (1.0e6 *. Rng.unit_float rng))) qs)
      (pair int (int_range 2 12)))

let empirical_guide_matches_reference =
  QCheck.Test.make ~name:"dist_empirical_guide_table_matches_reference" ~count:100
    (QCheck.make
       QCheck.Gen.(pair points_gen int)
       ~print:(fun (pts, seed) ->
         Printf.sprintf "%d points, seed %d" (List.length pts) seed))
    (fun (points, seed) ->
      let d = Dist.empirical points in
      let sorted = List.sort (fun (q1, _) (q2, _) -> compare q1 q2) points in
      let qs = Array.of_list (List.map fst sorted) in
      let vs = Array.of_list (List.map snd sorted) in
      (* Two RNGs on the same seed: [Dist.sample] consumes exactly one
         uniform per draw, so the streams stay aligned. *)
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 1000 do
        let fast = Dist.sample d r1 in
        let u = Rng.unit_float r2 in
        if fast <> reference_empirical qs vs u then ok := false
      done;
      !ok)

let mixture_guide_matches_reference =
  QCheck.Test.make ~name:"dist_mixture_guide_table_matches_reference" ~count:100
    QCheck.(pair (make Gen.(int_range 1 1000) ~print:string_of_int) small_int)
    (fun (wseed, seed) ->
      let rng = Rng.create wseed in
      let n = 2 + Rng.int rng 10 in
      let weights = List.init n (fun _ -> 0.01 +. Rng.unit_float rng) in
      (* Constant components make the picked branch observable in the
         sampled value. *)
      let parts = List.mapi (fun i w -> (w, Dist.constant (float_of_int i))) weights in
      let d = Dist.mixture parts in
      let total = List.fold_left ( +. ) 0.0 weights in
      let cum = Array.make n 0.0 in
      let acc = ref 0.0 in
      List.iteri
        (fun i w ->
          acc := !acc +. (w /. total);
          cum.(i) <- !acc)
        weights;
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 1000 do
        let fast = Dist.sample d r1 in
        let u = Rng.unit_float r2 in
        if int_of_float fast <> reference_pick_index cum u then ok := false
      done;
      !ok)

let discrete_guide_matches_reference =
  QCheck.Test.make ~name:"dist_discrete_guide_table_matches_reference" ~count:100
    QCheck.(pair (make Gen.(int_range 1 1000) ~print:string_of_int) small_int)
    (fun (wseed, seed) ->
      let rng = Rng.create wseed in
      let n = 1 + Rng.int rng 40 in
      let weights = Array.init n (fun _ -> 0.001 +. Rng.unit_float rng) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let weights = Array.map (fun w -> w /. total) weights in
      let d = Dist.discrete_of_weights weights in
      let cum = Array.make n 0.0 in
      let acc = ref 0.0 in
      Array.iteri
        (fun i w ->
          acc := !acc +. w;
          cum.(i) <- !acc)
        weights;
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 1000 do
        let fast = Dist.discrete_sample d r1 in
        let u = Rng.unit_float r2 in
        if fast <> reference_pick_index cum u then ok := false
      done;
      !ok)

(* {1 Int_table vs Hashtbl model} *)

let int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int_table_matches_hashtbl_model" ~count:100
    QCheck.(
      pair small_int
        (list_of_size (Gen.int_range 50 400) (pair (int_range 0 3) (int_range (-100) 100))))
    (fun (salt, ops) ->
      let t = Int_table.create ~initial_capacity:4 () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      (* Key pool mixes small, negative, and huge magnitudes (addresses). *)
      let key_of k = if k land 1 = 0 then k * 977 else (k * 131) + (salt * 1_000_003) in
      List.iter
        (fun (op, k) ->
          let key = key_of k in
          match op with
          | 0 ->
            Int_table.set t key k;
            Hashtbl.replace model key k
          | 1 ->
            Int_table.remove t key;
            Hashtbl.remove model key
          | 2 ->
            if Int_table.mem t key <> Hashtbl.mem model key then ok := false
          | _ ->
            let expect = match Hashtbl.find_opt model key with Some v -> v | None -> min_int + 2 in
            if Int_table.find t key ~default:(min_int + 2) <> expect then ok := false)
        ops;
      if Int_table.length t <> Hashtbl.length model then ok := false;
      Hashtbl.iter
        (fun k v -> if Int_table.find t k ~default:(v + 1) <> v then ok := false)
        model;
      !ok)

(* Keys whose home slot in a [cap]-slot table is one of the last [tail]
   slots, so their probe runs wrap around the end of the table.  This
   mirrors [Int_table]'s hash; were that hash changed, the keys would
   still be valid, only no longer clustered. *)
let wrapping_keys ~cap ~tail ~n =
  let shift = 63 - (match cap with 16 -> 4 | 32 -> 5 | _ -> invalid_arg "wrapping_keys") in
  let home k = (k * 0x2545F4914F6CDD1D) lsr shift in
  let rec go k acc count =
    if count = n then List.rev acc
    else if home k >= cap - tail then go (k + 1) (k :: acc) (count + 1)
    else go (k + 1) acc count
  in
  go 1 [] 0

(* Delete-heavy runs over keys clustered at the end of the table: removal
   shifts entries back across the wrap, and every key must stay findable. *)
let int_table_delete_heavy_wrapping =
  let pool = Array.of_list (wrapping_keys ~cap:16 ~tail:2 ~n:12 @ wrapping_keys ~cap:32 ~tail:2 ~n:12) in
  QCheck.Test.make ~name:"int_table_delete_heavy_wrapping_clusters" ~count:300
    QCheck.(list_of_size (Gen.int_range 20 300) (pair (int_range 0 9) (int_range 0 (Array.length pool - 1))))
    (fun ops ->
      let t = Int_table.create ~initial_capacity:16 () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun step (op, i) ->
          let key = pool.(i) in
          (* Removes outnumber inserts 5 to 3. *)
          if op < 3 then begin
            Int_table.set t key step;
            Hashtbl.replace model key step
          end
          else if op < 8 then begin
            Int_table.remove t key;
            Hashtbl.remove model key
          end
          else if Int_table.mem t key <> Hashtbl.mem model key then ok := false;
          if Int_table.length t <> Hashtbl.length model then ok := false;
          Array.iter
            (fun k ->
              let expect = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
              if Int_table.find t k ~default:(-1) <> expect then ok := false)
            pool)
        ops;
      !ok)

let int_table_wrapped_cluster_removal () =
  (* Six keys homed in the last two slots of a 16-slot table fill slots 14,
     15, 0, 1, 2, 3; removing each position in turn must keep the rest. *)
  let keys = wrapping_keys ~cap:16 ~tail:2 ~n:6 in
  List.iteri
    (fun victim_index victim ->
      let t = Int_table.create ~initial_capacity:16 () in
      List.iter (fun k -> Int_table.set t k (k + 1)) keys;
      Int_table.remove t victim;
      check_int (Printf.sprintf "length after removing #%d" victim_index) 5 (Int_table.length t);
      List.iter
        (fun k ->
          let expect = if k = victim then -1 else k + 1 in
          check_int (Printf.sprintf "key %d after removing #%d" k victim_index) expect
            (Int_table.find t k ~default:(-1)))
        keys)
    keys

let int_table_reserved_keys_absent () =
  (* The empty-slot marker must not match an empty slot. *)
  let t = Int_table.create () in
  Int_table.set t 5 50;
  List.iter
    (fun key ->
      check_bool (Printf.sprintf "mem %d" key) false (Int_table.mem t key);
      check_int (Printf.sprintf "find %d" key) (-1) (Int_table.find t key ~default:(-1));
      Int_table.remove t key;
      check_int (Printf.sprintf "length after remove %d" key) 1 (Int_table.length t))
    [ min_int; min_int + 1 ];
  check_int "key 5 kept" 50 (Int_table.find t 5 ~default:(-1))

let int_table_tombstone_churn () =
  (* Set/remove cycling through a fixed key range: every removal must
     leave the table as if the key was never set. *)
  let t = Int_table.create ~initial_capacity:8 () in
  for i = 1 to 100_000 do
    let k = i land 0x3f in
    Int_table.set t k i;
    Int_table.remove t k
  done;
  check_int "empty after churn" 0 (Int_table.length t);
  for k = 0 to 0x3f do
    if Int_table.mem t k then Alcotest.failf "stale key %d after churn" k
  done

(* The driver builds one calendar per job, and a cold campaign machine
   builds two.  Creating one must not force a minor collection: in OCaml 5
   that stops every domain. *)
let create_forces_no_minor_gc () =
  ignore (Sys.opaque_identity (Calendar.create ()));
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 200 do
    ignore (Sys.opaque_identity (Calendar.create ()))
  done;
  let ran = (Gc.quick_stat ()).Gc.minor_collections - before in
  if ran >= 50 then Alcotest.failf "200 Calendar.create calls ran %d minor collections" ran

(* {1 Allocation per simulated event} *)

(* Minor words a warm fleet-profile machine allocates per malloc or free,
   measured over 20 s of simulated time after a 5 s warm-up.  The count is
   a deterministic function of the build: 5.43 in the release profile and
   11.76 in dev (OCaml 5.1.1).  Each bound sits less than one word above
   its measured value, so one more boxed float (two words) per event
   fails it. *)
let words_per_event_bound = if Build_info.profile = "release" then 6.0 else 12.5

let warm_machine_minor_words_per_event () =
  let module Machine = Wsc_fleet.Machine in
  let module Telemetry = Wsc_tcmalloc.Telemetry in
  let machine =
    Machine.create ~seed:42 ~platform:Wsc_hw.Topology.default
      ~jobs:[ Wsc_workload.Apps.fleet ] ()
  in
  Machine.run machine ~duration_ns:(5.0 *. Units.sec) ~epoch_ns:Units.ms;
  let tel = Wsc_backend.Backend.telemetry (List.hd (Machine.jobs machine)).Machine.backend in
  let events () = Telemetry.alloc_count tel + Telemetry.free_count tel in
  let e0 = events () and w0 = Gc.minor_words () in
  Machine.run machine ~duration_ns:(20.0 *. Units.sec) ~epoch_ns:Units.ms;
  let words = (Gc.minor_words () -. w0) /. float_of_int (events () - e0) in
  if words > words_per_event_bound then
    Alcotest.failf "%.2f minor words per event in the %s profile, above %.1f" words
      Build_info.profile words_per_event_bound

let suite =
    [
      ( "calendar",
        [
          qcheck calendar_matches_event_heap;
          qcheck drain_payloads_matches_drain_until;
          Alcotest.test_case "watermark resort after partial drain" `Quick watermark_resort;
          Alcotest.test_case "bucket boundaries" `Quick bucket_boundaries;
          Alcotest.test_case "create forces no minor GC" `Quick create_forces_no_minor_gc;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm machine minor words per event" `Quick
            warm_machine_minor_words_per_event;
        ] );
      ( "samplers",
        [
          qcheck empirical_guide_matches_reference;
          qcheck mixture_guide_matches_reference;
          qcheck discrete_guide_matches_reference;
        ] );
      ( "int_table",
        [
          qcheck int_table_matches_hashtbl;
          Alcotest.test_case "tombstone churn" `Quick int_table_tombstone_churn;
          qcheck int_table_delete_heavy_wrapping;
          Alcotest.test_case "wrapped cluster removal" `Quick int_table_wrapped_cluster_removal;
          Alcotest.test_case "reserved keys absent" `Quick int_table_reserved_keys_absent;
        ] );
    ]
