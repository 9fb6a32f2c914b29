(* Host-time and allocation measurement around calls into the library.

   Every span in the benchmark is taken here, by the benchmark's own code,
   around a call into a public function: nothing inside the library is
   instrumented.  Spans are folded into accumulators in memory and only
   turned into metrics when a run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* Cost of an empty span (two clock reads and two minor-word reads),
   measured once per process and subtracted from per-call sums, so a
   layer's mean is the call's own cost rather than call + probe. *)
let overhead =
  lazy
    (let n = 200_000 in
     let ns = ref 0 and words = ref 0.0 in
     for _ = 1 to n do
       let t0 = now_ns () in
       let w0 = Gc.minor_words () in
       let w1 = Gc.minor_words () in
       let t1 = now_ns () in
       ns := !ns + (t1 - t0);
       words := !words +. (w1 -. w0)
     done;
     (float_of_int !ns /. float_of_int n, !words /. float_of_int n))

let overhead_ns () = fst (Lazy.force overhead)
let overhead_words () = snd (Lazy.force overhead)

(* One accumulator per (layer, call kind).  A probe (one span) may cover
   a run of calls; the probe cost is subtracted once per probe and the
   means are per call.  Int fields only, so updating one allocates nothing
   and cannot perturb the next measured call. *)
type acc = { mutable calls : int; mutable probes : int; mutable ns : int; mutable words : int }

let acc () = { calls = 0; probes = 0; ns = 0; words = 0 }

let add_run a ~calls ~ns ~words =
  a.calls <- a.calls + calls;
  a.probes <- a.probes + 1;
  a.ns <- a.ns + ns;
  a.words <- a.words + words

let add a ~ns ~words = add_run a ~calls:1 ~ns ~words

(* Work that belongs to a layer but is not one of the calls its mean is
   taken over (the generator's once-per-epoch drift factor). *)
let add_uncounted a ~ns ~words = add_run a ~calls:0 ~ns ~words

let merge_into dst src =
  dst.calls <- dst.calls + src.calls;
  dst.probes <- dst.probes + src.probes;
  dst.ns <- dst.ns + src.ns;
  dst.words <- dst.words + src.words

(* Probe-corrected totals and per-call means. *)
let total_ns a = Float.max 0.0 (float_of_int a.ns -. (float_of_int a.probes *. overhead_ns ()))
let total_words a = Float.max 0.0 (float_of_int a.words -. (float_of_int a.probes *. overhead_words ()))
let mean_ns a = if a.calls = 0 then 0.0 else total_ns a /. float_of_int a.calls

(* Time [f ()] and charge it to [a].  The closure makes this unsuitable
   for per-event hot paths, which inline the four probe reads instead. *)
let timed a f =
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = now_ns () in
  add a ~ns:(t1 - t0) ~words:(int_of_float (w1 -. w0));
  r

(* Median of a float list (the mean of the middle pair for even lengths). *)
let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Durations of one repeated operation (an epoch step, a shard). *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort compare a;
    a

  (* Nearest-rank percentile of a sorted array. *)
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0
    else
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

  (* The highest of the standard percentiles that still has at least ten
     samples beyond it, so a tail value is never one outlier. *)
  let tail_percentile n =
    List.fold_left
      (fun best p -> if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else best)
      50.0
      [ 90.0; 99.0; 99.9; 99.99; 99.999 ]

  let max sorted = if Array.length sorted = 0 then 0 else sorted.(Array.length sorted - 1)

  let total t =
    let s = ref 0 in
    for i = 0 to t.len - 1 do
      s := !s + t.data.(i)
    done;
    float_of_int !s

  let median t = median (List.init t.len (fun i -> float_of_int t.data.(i)))
end

(* Process-wide OCaml runtime counters, for per-event GC costs. *)
type gc = { minor : float; promoted : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major_collections = b.major_collections - a.major_collections;
  }
