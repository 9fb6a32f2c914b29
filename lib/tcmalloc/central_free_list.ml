type addr = int

(* Each occupancy list is a LIFO stack of spans with lazy invalidation: a
   span entry is live only while the span's [list_index] still names this
   list and the span has free objects.  Baseline mode uses a single list, so
   allocation draws from whatever span was touched most recently — the
   occupancy-oblivious behaviour Sec. 4.3 identifies as the fragmentation
   source. *)
type span_list = { mutable stack : Span.t list }

(* Every span a class owns sits in [held.(0 .. n_held - 1)], at its
   [held_slot]; a released span's place takes the last one, so holding
   and releasing a span cost no hash and no allocation.  Only the audit
   and span snapshots visit the held spans, and neither depends on their
   order. *)
type class_state = {
  lists : span_list array;
  mutable held : Span.t array;
  mutable n_held : int;
  mutable free_objects : int;
}

type t = {
  config : Config.t;
  pageheap : Pageheap.t;
  span_stats : Span_stats.t option;
  classes : class_state array;
  mutable released_span_bytes : int;
      (* cumulative bytes of drained spans returned to the pageheap *)
}

let create ?(config = Config.baseline) ?span_stats pageheap =
  let n_lists = if config.Config.span_prioritization then config.Config.cfl_lists else 1 in
  let make_class _ =
    {
      lists = Array.init n_lists (fun _ -> { stack = [] });
      held = [||];
      n_held = 0;
      free_objects = 0;
    }
  in
  {
    config;
    pageheap;
    span_stats;
    classes = Array.init Size_class.count make_class;
    released_span_bytes = 0;
  }

(* List housing a span with [a] outstanding objects: fuller spans in lower
   indices (allocated from first), nearly-free spans in higher indices
   (left alone to drain).  Paper formula: max(0, L - log2 A), clamped. *)
let target_index t span =
  if Span.free_objects span = 0 then -1
  else if not t.config.Config.span_prioritization then 0
  else begin
    let l = t.config.Config.cfl_lists in
    let a = span.Span.outstanding in
    if a <= 0 then l - 1
    else begin
      let log2 =
        let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
        go a 0
      in
      max 0 (min (l - 1) (l - 1 - log2))
    end
  end

let push_to_list cs span idx =
  Span.set_list_index span idx;
  if idx >= 0 then begin
    let list = cs.lists.(idx) in
    list.stack <- span :: list.stack
  end

(* Re-home a span after its occupancy changed.  Skips the push when the
   span is already validly listed at its target index. *)
let relist t cs span ~force =
  let idx = target_index t span in
  if force || idx <> span.Span.list_index then push_to_list cs span idx

let rec pop_valid cs idx =
  let list = cs.lists.(idx) in
  match list.stack with
  | [] -> None
  | span :: rest ->
    list.stack <- rest;
    if span.Span.list_index = idx && Span.free_objects span > 0 then Some span
    else pop_valid cs idx

let pick_span cs =
  let n = Array.length cs.lists in
  let rec scan idx =
    if idx = n then None
    else begin
      match pop_valid cs idx with Some span -> Some span | None -> scan (idx + 1)
    end
  in
  scan 0

(* Fills the unused tail of [held]: old after the first minor collection,
   so growing an array past 256 words forces none (see Calendar). *)
let vacant = Span.create_large ~id:(-1) ~base:0 ~pages:1 ~birth_time:0.0

let hold cs span =
  let n = cs.n_held in
  if n = Array.length cs.held then begin
    let bigger = Array.make (max 8 (2 * n)) vacant in
    Array.blit cs.held 0 bigger 0 n;
    cs.held <- bigger
  end;
  cs.held.(n) <- span;
  Span.set_held_slot span n;
  cs.n_held <- n + 1

let release cs span =
  let i = span.Span.held_slot and last = cs.n_held - 1 in
  let moved = cs.held.(last) in
  cs.held.(i) <- moved;
  Span.set_held_slot moved i;
  cs.held.(last) <- vacant;
  Span.set_held_slot span (-1);
  cs.n_held <- last

let note_created t span ~now =
  match t.span_stats with
  | None -> ()
  | Some stats ->
    Span_stats.note_created stats ~span_id:span.Span.id ~cls:span.Span.size_class ~now

let note_released t span ~now =
  match t.span_stats with
  | None -> ()
  | Some stats ->
    Span_stats.note_released stats ~span_id:span.Span.id ~cls:span.Span.size_class ~now

let remove_objects_into t ~cls ~n ~now ~buf ~pos ~mmaps =
  let cs = t.classes.(cls) in
  let need = ref n in
  let k = ref pos in
  (try
     while !need > 0 do
       let span =
         match pick_span cs with
         | Some span -> span
         | None ->
           let span, m = Pageheap.new_small_span t.pageheap ~size_class:cls ~now in
           mmaps := !mmaps + m;
           hold cs span;
           cs.free_objects <- cs.free_objects + span.Span.capacity;
           note_created t span ~now;
           Span.set_list_index span (-1);
           span
       in
       let take = Span.pop_objects_into span ~n:!need ~buf ~pos:!k in
       cs.free_objects <- cs.free_objects - take;
       need := !need - take;
       k := !k + take;
       (* The span left its list when popped (or was never listed if fresh);
          always re-push if it still has capacity. *)
       relist t cs span ~force:(Span.free_objects span > 0)
     done
   with Wsc_os.Vm.Mmap_failed _ ->
     (* Graceful degradation under memory pressure: hand back whatever was
        gathered before the failed span grow.  An empty result tells the
        caller the allocation itself must reclaim and retry. *)
     ());
  !k - pos

let return_objects t ~cls ~addrs ~now =
  let cs = t.classes.(cls) in
  List.iter
    (fun a ->
      let span =
        match Pageheap.span_of_addr t.pageheap a with
        | Some span -> span
        | None -> invalid_arg "Central_free_list.return_objects: wild pointer"
      in
      if span.Span.size_class <> cls then
        invalid_arg "Central_free_list.return_objects: class mismatch";
      let was_exhausted = Span.free_objects span = 0 in
      Span.push_object span a;
      cs.free_objects <- cs.free_objects + 1;
      if Span.is_idle span then begin
        cs.free_objects <- cs.free_objects - span.Span.capacity;
        release cs span;
        Span.set_list_index span (-1);
        note_released t span ~now;
        t.released_span_bytes <- t.released_span_bytes + Span.span_bytes span;
        Pageheap.free_span t.pageheap span
      end
      else relist t cs span ~force:was_exhausted)
    addrs

(* Plain index loop: this runs every driver epoch, and the closure the
   [Array.iteri] form captures its accumulator in would allocate. *)
let fragmented_bytes t =
  let total = ref 0 in
  for cls = 0 to Array.length t.classes - 1 do
    let cs = Array.unsafe_get t.classes cls in
    total := !total + (cs.free_objects * Size_class.size cls)
  done;
  !total

let released_span_bytes t = t.released_span_bytes

let iter_spans t f =
  Array.iter
    (fun cs ->
      for i = 0 to cs.n_held - 1 do
        f cs.held.(i)
      done)
    t.classes

let span_count t ~cls = t.classes.(cls).n_held

let snapshot t ~now =
  match t.span_stats with
  | None -> ()
  | Some stats ->
    Array.iteri
      (fun cls cs ->
        for i = 0 to cs.n_held - 1 do
          let span = cs.held.(i) in
          Span_stats.observe stats ~span_id:span.Span.id ~cls
            ~outstanding:span.Span.outstanding ~now
        done)
      t.classes
