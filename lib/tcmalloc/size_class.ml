open Wsc_substrate

type info = { index : int; size : int; pages : int; capacity : int; batch : int }

let page_size = Units.tcmalloc_page_size
let max_size = 256 * Units.kib

(* Spacing: multiples of 8 to 128 B; eight classes per octave (step size/8)
   from 128 B to 4 KiB; four per octave (step size/4) from 4 KiB to 256 KiB. *)
let sizes =
  let out = ref [] in
  let add s = out := s :: !out in
  let s = ref 8 in
  while !s <= 128 do
    add !s;
    s := !s + 8
  done;
  let octave = ref 128 in
  while !octave < 4096 do
    let step = !octave / 8 in
    for i = 1 to 8 do
      add (!octave + (i * step))
    done;
    octave := !octave * 2
  done;
  let octave = ref 4096 in
  while !octave < max_size do
    let step = !octave / 4 in
    for i = 1 to 4 do
      add (!octave + (i * step))
    done;
    octave := !octave * 2
  done;
  Array.of_list (List.rev !out)

(* Pages per span: smallest run of 1..64 pages keeping tail waste <= 12.5%
   and, for small classes, giving a reasonably large capacity so refills
   amortize (TCMalloc keeps small-class spans at one page, which already
   holds >= 64 objects). *)
let pages_for size =
  let waste_ok p =
    let span_bytes = p * page_size in
    let tail = span_bytes mod size in
    float_of_int tail /. float_of_int span_bytes <= 0.125
  in
  let rec search p = if p >= 64 then 64 else if waste_ok p then p else search (p + 1) in
  search (max 1 ((size + page_size - 1) / page_size))

let batch_for size =
  let moved = 64 * Units.kib / size in
  max 2 (min 32 moved)

let all =
  Array.mapi
    (fun index size ->
      let pages = pages_for size in
      let capacity = pages * page_size / size in
      { index; size; pages; capacity; batch = batch_for size })
    sizes

let count = Array.length all

let info i =
  if i < 0 || i >= count then invalid_arg "Size_class.info: out of range";
  all.(i)

let size i = (info i).size
let capacity i = (info i).capacity
let batch i = (info i).batch
let pages i = (info i).pages

(* O(1) class lookup: direct table for every multiple of 8 up to max_size. *)
let lookup =
  let slots = (max_size / 8) + 1 in
  let table = Array.make slots 0 in
  let cls = ref 0 in
  for slot = 1 to slots - 1 do
    let needed = slot * 8 in
    while !cls < count && all.(!cls).size < needed do
      incr cls
    done;
    table.(slot) <- (if !cls < count then !cls else -1)
  done;
  table

(* -1 means "large" (pageheap-direct): no [Some] box per lookup on the
   per-event hot paths. *)
let index_of_size n =
  if n <= 0 then invalid_arg "Size_class.index_of_size: nonpositive size";
  if n > max_size then -1 else lookup.((n + 7) / 8)

let internal_slack ~requested =
  let cls = index_of_size requested in
  if cls < 0 then 0 else size cls - requested
