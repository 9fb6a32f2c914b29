(* Hierarchical timing-wheel event queue ("calendar queue") keyed by
   float nanosecond timestamps, bucketed on their integer ticks.

   Structure: [levels] wheels of [slots] buckets each.  Level [l] buckets
   are [2^bucket_bits * slots^l] ns wide, and [levels] is the fewest
   wheels whose top window reaches [max_tick] (2^61 ns ~ 73 years) — no
   overflow heap is needed; the driver's "far future" startup allocations
   (1e18 ns) land in a top wheel.  An event's level is the lowest whose
   32-slot window, anchored at the current drain position, reaches the
   event's bucket.  Advancing the drain position cascades coarse buckets
   into finer wheels, so every event is touched O(levels) times total and
   push/pop are O(1) amortized — against the O(log n) sift cost of the
   binary heap it replaced, kept as test/event_heap_reference.ml, the
   differential-testing reference for this module.

   Bucket width: the driver drains once per 1 ms epoch, so a level-0
   bucket is about one epoch wide (2^20 ns).  An epoch drain then touches
   one or two buckets of about one epoch's events each, which the
   insertion sort handles cheaply.  Much narrower buckets make every drain
   walk hundreds of mostly empty buckets, each through a [next_occupied]
   scan of every wheel, and cascade each event through more wheels.

   Ordering contract: events are delivered in nondecreasing key order, and
   events with {e equal} keys are delivered in push (FIFO) order — each
   entry carries an insertion sequence number and buckets sort by
   (key, seq) before draining.  The order is therefore the same at any
   bucket width.  The binary heap pops equal keys in unspecified
   structure order instead; equal float keys only arise from the driver's
   shared "far future" constant, whose drain order is aggregate-
   insensitive, so the two queues produce identical simulation outcomes
   (test_eventloop pins the full-order equivalence modulo ties).

   Reentrancy: the drain callback must not push events (the driver's free
   events never allocate); pushes between drains are unrestricted. *)

let slot_bits = 5
let slots = 1 lsl slot_bits         (* 32 buckets per wheel *)
let slot_mask = slots - 1
let bucket_bits = 20                (* level-0 buckets are 2^20 ns ~ 1 ms wide *)
let bucket_width_ns = 1 lsl bucket_bits
let max_tick = max_int / 2

let[@inline] shift_of_level l = bucket_bits + (slot_bits * l)

(* The fewest wheels whose top window reaches [max_tick].  Every shift
   stays below the word size: OCaml leaves [lsr] by 63 or more
   unspecified. *)
let levels =
  let rec fit l = if max_tick lsr shift_of_level (l - 1) < slots then l else fit (l + 1) in
  fit 1

let () = assert (shift_of_level (levels - 1) < Sys.int_size)

(* Entries in struct-of-arrays form: float keys stay unboxed, payloads are
   plain ints, and [seq] breaks equal-key ties in insertion order. *)
type bucket = {
  mutable keys : float array;
  mutable ticks : int array;
  mutable ea : int array;
  mutable eb : int array;
  mutable ec : int array;
  mutable seq : int array;
  mutable blen : int;
  (* Entries below [sorted] are already in (key, seq) order; repeated
     partial drains of the bucket holding "now" only re-insert appends. *)
  mutable sorted : int;
}

type t = {
  buckets : bucket array;           (* levels * slots, flattened *)
  mutable cur : int;                (* every occupied bucket ends after cur *)
  mutable len : int;
  mutable next_seq : int;
  (* [next_occupied] results, as scratch fields to keep drains
     allocation-free. *)
  mutable no_level : int;
  mutable no_index : int;
  mutable no_start : int;
}

let new_bucket () =
  {
    keys = [||];
    ticks = [||];
    ea = [||];
    eb = [||];
    ec = [||];
    seq = [||];
    blen = 0;
    sorted = 0;
  }

(* Every slot starts as this one shared, never-written bucket, told apart
   by [sorted = -1] rather than by physical equality ([Marshal] gives a
   restored calendar its own copy).  Its zero capacity sends the first
   push through [grow], which puts a bucket of the slot's own in its
   place, so a calendar allocates only the buckets it uses: a short-lived
   driver touches a few dozen of the 288.

   It is also old after the first minor collection.  [caml_make_vect]
   empties the minor heap before it fills an array longer than 256 words
   with a young value — in OCaml 5 a stop-the-world collection on every
   domain — and [Array.init] fills with a young [f 0] first, so building
   the 288 buckets with it would force one collection per calendar. *)
let empty_slot = { (new_bucket ()) with sorted = -1 }

let create () =
  {
    buckets = Array.make (levels * slots) empty_slot;
    cur = 0;
    len = 0;
    next_seq = 0;
    no_level = 0;
    no_index = 0;
    no_start = 0;
  }

let length t = t.len

let bucket_grow b =
  let cap = Array.length b.keys in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let grow_f src =
    let dst = Array.make ncap 0.0 in
    Array.blit src 0 dst 0 b.blen;
    dst
  in
  let grow_i src =
    let dst = Array.make ncap 0 in
    Array.blit src 0 dst 0 b.blen;
    dst
  in
  b.keys <- grow_f b.keys;
  b.ticks <- grow_i b.ticks;
  b.ea <- grow_i b.ea;
  b.eb <- grow_i b.eb;
  b.ec <- grow_i b.ec;
  b.seq <- grow_i b.seq

(* Big one-shot buckets (a cascaded far-future cohort) should give their
   arrays back once drained. *)
let bucket_release b =
  if Array.length b.keys > 4096 then begin
    b.keys <- [||];
    b.ticks <- [||];
    b.ea <- [||];
    b.eb <- [||];
    b.ec <- [||];
    b.seq <- [||]
  end;
  b.blen <- 0;
  b.sorted <- 0

(* Flat bucket index for a tick: the lowest wheel whose 32-slot window
   anchored at [cur] reaches it.  Int-only signature and a separate
   function on purpose: the backend refuses to inline loop-containing
   functions, and keeping the float key out of this call lets the
   (loop-free, inlinable) [push_tick] below store it without boxing. *)
let bucket_index t tick =
  let l = ref 0 in
  while (tick lsr shift_of_level !l) - (t.cur lsr shift_of_level !l) >= slots do
    incr l
  done;
  let sh = shift_of_level !l in
  (!l lsl slot_bits) lor ((tick lsr sh) land slot_mask)

(* Make room in slot [idx]'s full bucket [bk], first giving the slot a
   bucket of its own if it still holds [empty_slot]. *)
let grow t idx bk =
  let bk =
    if bk.sorted >= 0 then bk
    else begin
      let own = new_bucket () in
      t.buckets.(idx) <- own;
      own
    end
  in
  bucket_grow bk;
  bk

let[@inline] push_tick t ~tick ~key ~a ~b ~c ~seq =
  let idx = bucket_index t tick in
  let bk = Array.unsafe_get t.buckets idx in
  let i = bk.blen in
  let bk = if i = Array.length bk.keys then grow t idx bk else bk in
  Array.unsafe_set bk.keys i key;
  Array.unsafe_set bk.ticks i tick;
  Array.unsafe_set bk.ea i a;
  Array.unsafe_set bk.eb i b;
  Array.unsafe_set bk.ec i c;
  Array.unsafe_set bk.seq i seq;
  bk.blen <- i + 1;
  t.len <- t.len + 1

let[@inline] push t key ~a ~b ~c =
  if not (key >= 0.0) then invalid_arg "Calendar.push: key must be >= 0";
  let tick = if key >= float_of_int max_tick then max_tick else int_of_float key in
  (* Late keys (at or before the drain position) go to the current bucket;
     the (key, seq) sort still delivers them first. *)
  let tick = if tick < t.cur then t.cur else tick in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_tick t ~tick ~key ~a ~b ~c ~seq

(* Sort bucket entries by (key, seq).  Insertion sort: buckets are small in
   steady state, and cascaded cohorts arrive already ordered (cascades
   preserve order), where insertion sort is O(n). *)
let sort_bucket bk =
  let keys = bk.keys and ticks = bk.ticks in
  let ea = bk.ea and eb = bk.eb and ec = bk.ec and seq = bk.seq in
  for i = max 1 bk.sorted to bk.blen - 1 do
    let k = keys.(i) and tk = ticks.(i) in
    let a = ea.(i) and b = eb.(i) and c = ec.(i) and s = seq.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && (keys.(!j) > k || (keys.(!j) = k && seq.(!j) > s)) do
      let j1 = !j + 1 in
      keys.(j1) <- keys.(!j);
      ticks.(j1) <- ticks.(!j);
      ea.(j1) <- ea.(!j);
      eb.(j1) <- eb.(!j);
      ec.(j1) <- ec.(!j);
      seq.(j1) <- seq.(!j);
      decr j
    done;
    let j1 = !j + 1 in
    keys.(j1) <- k;
    ticks.(j1) <- tk;
    ea.(j1) <- a;
    eb.(j1) <- b;
    ec.(j1) <- c;
    seq.(j1) <- s
  done;
  bk.sorted <- bk.blen

(* The occupied bucket with the smallest start tick, as
   (level, flat index, start); ties prefer the coarser wheel so its
   events cascade down before the finer bucket at the same start drains.
   Returns start > max_tick when the queue is empty. *)
let next_occupied t =
  let best_start = ref max_int and best_l = ref (-1) and best_idx = ref 0 in
  for l = 0 to levels - 1 do
    let sh = shift_of_level l in
    let c = t.cur lsr sh in
    (* Every occupied bucket starts at or after [cur] (drain invariant), so
       the lowest conceivable start on this wheel is the first
       width-aligned boundary at/after [cur]; skip the slot scan when even
       that cannot improve on the best so far.  Ties go to the coarser
       wheel (checked later, compared with <=) so its events cascade down
       before an equal-start fine bucket drains. *)
    let lowest = if c lsl sh < t.cur then (c + 1) lsl sh else c lsl sh in
    if lowest <= !best_start then begin
      let base = l lsl slot_bits in
      let off = ref 0 in
      while
        !off < slots
        && (Array.unsafe_get t.buckets (base lor ((c + !off) land slot_mask))).blen = 0
      do
        incr off
      done;
      if !off < slots then begin
        let start = (c + !off) lsl sh in
        if start <= !best_start then begin
          best_start := start;
          best_l := l;
          best_idx := base lor ((c + !off) land slot_mask)
        end
      end
    end
  done;
  t.no_level <- !best_l;
  t.no_index <- !best_idx;
  t.no_start <- !best_start

let cascade t bk start =
  t.cur <- (if start > t.cur then start else t.cur);
  let n = bk.blen in
  bk.blen <- 0;
  t.len <- t.len - n;
  for i = 0 to n - 1 do
    push_tick t ~tick:bk.ticks.(i) ~key:bk.keys.(i) ~a:bk.ea.(i) ~b:bk.eb.(i)
      ~c:bk.ec.(i) ~seq:bk.seq.(i)
  done;
  bucket_release bk

let drain_until t bound f =
  if t.len > 0 && bound >= 0.0 then begin
    let target =
      if bound >= float_of_int max_tick then max_tick else int_of_float bound
    in
    let continue = ref true in
    while !continue && t.len > 0 do
      next_occupied t;
      let l = t.no_level and idx = t.no_index and start = t.no_start in
      if start > target then begin
        if target + 1 > t.cur then t.cur <- target + 1;
        continue := false
      end
      else if l > 0 then cascade t (Array.unsafe_get t.buckets idx) start
      else begin
        if start > t.cur then t.cur <- start;
        let bk = Array.unsafe_get t.buckets idx in
        sort_bucket bk;
        let bucket_end = start + bucket_width_ns in
        if bucket_end <= target then begin
          (* Whole bucket is due: every key < bucket_end <= bound. *)
          let n = bk.blen in
          bk.blen <- 0;
          t.len <- t.len - n;
          for i = 0 to n - 1 do
            f ~key:bk.keys.(i) ~a:bk.ea.(i) ~b:bk.eb.(i) ~c:bk.ec.(i)
          done;
          bucket_release bk;
          t.cur <- bucket_end
        end
        else begin
          (* The bucket containing [bound]: emit the due prefix, retain the
             rest, and stop — no other bucket starts at or before target. *)
          let n = bk.blen in
          let e = ref 0 in
          while !e < n && bk.keys.(!e) <= bound do incr e done;
          let emitted = !e in
          for i = 0 to emitted - 1 do
            f ~key:bk.keys.(i) ~a:bk.ea.(i) ~b:bk.eb.(i) ~c:bk.ec.(i)
          done;
          if emitted > 0 then begin
            let m = n - emitted in
            for i = 0 to m - 1 do
              let src = emitted + i in
              bk.keys.(i) <- bk.keys.(src);
              bk.ticks.(i) <- bk.ticks.(src);
              bk.ea.(i) <- bk.ea.(src);
              bk.eb.(i) <- bk.eb.(src);
              bk.ec.(i) <- bk.ec.(src);
              bk.seq.(i) <- bk.seq.(src)
            done;
            bk.blen <- m;
            bk.sorted <- m;
            t.len <- t.len - emitted;
            if m = 0 then begin
              bucket_release bk;
              if target + 1 > t.cur then t.cur <- target + 1
            end
          end;
          continue := false
        end
      end
    done;
    if t.len = 0 && target + 1 > t.cur then t.cur <- target + 1
  end

(* [drain_until] without the key in the callback: the driver's free events
   ignore their timestamp, and passing a float to a non-inlined closure
   boxes it — two minor words per event on the hottest path. *)
let drain_payloads t bound f =
  if t.len > 0 && bound >= 0.0 then begin
    let target =
      if bound >= float_of_int max_tick then max_tick else int_of_float bound
    in
    let continue = ref true in
    while !continue && t.len > 0 do
      next_occupied t;
      let l = t.no_level and idx = t.no_index and start = t.no_start in
      if start > target then begin
        if target + 1 > t.cur then t.cur <- target + 1;
        continue := false
      end
      else if l > 0 then cascade t (Array.unsafe_get t.buckets idx) start
      else begin
        if start > t.cur then t.cur <- start;
        let bk = Array.unsafe_get t.buckets idx in
        sort_bucket bk;
        let bucket_end = start + bucket_width_ns in
        if bucket_end <= target then begin
          let n = bk.blen in
          bk.blen <- 0;
          t.len <- t.len - n;
          for i = 0 to n - 1 do
            f ~a:(Array.unsafe_get bk.ea i) ~b:(Array.unsafe_get bk.eb i)
              ~c:(Array.unsafe_get bk.ec i)
          done;
          bucket_release bk;
          t.cur <- bucket_end
        end
        else begin
          let n = bk.blen in
          let e = ref 0 in
          while !e < n && bk.keys.(!e) <= bound do incr e done;
          let emitted = !e in
          for i = 0 to emitted - 1 do
            f ~a:(Array.unsafe_get bk.ea i) ~b:(Array.unsafe_get bk.eb i)
              ~c:(Array.unsafe_get bk.ec i)
          done;
          if emitted > 0 then begin
            let m = n - emitted in
            for i = 0 to m - 1 do
              let src = emitted + i in
              bk.keys.(i) <- bk.keys.(src);
              bk.ticks.(i) <- bk.ticks.(src);
              bk.ea.(i) <- bk.ea.(src);
              bk.eb.(i) <- bk.eb.(src);
              bk.ec.(i) <- bk.ec.(src);
              bk.seq.(i) <- bk.seq.(src)
            done;
            bk.blen <- m;
            bk.sorted <- m;
            t.len <- t.len - emitted;
            if m = 0 then begin
              bucket_release bk;
              if target + 1 > t.cur then t.cur <- target + 1
            end
          end;
          continue := false
        end
      end
    done;
    if t.len = 0 && target + 1 > t.cur then t.cur <- target + 1
  end
