(* Reference live index for the differential test in
   test_trace_stream.ml: the order-statistic index Wsc_trace.Live_index
   replaced with a bitmap walked from the newest slot.  An append-only slot
   array in allocation order, a liveness Fenwick tree over the slots, and
   an id -> slot table that every append and free updates.  Both must give
   the same ranks, ids, lengths, membership answers and Invalid_argument
   messages for any operation sequence over ids greater than
   [min_int + 1]. *)

open Wsc_substrate

type t = {
  mutable ids : int array;  (* slot -> id, in allocation order *)
  mutable live : Bytes.t;  (* slot -> 0/1 *)
  mutable fenwick : int array;  (* 1-indexed liveness counts *)
  mutable cap : int;  (* power of two *)
  mutable n_slots : int;  (* next append position *)
  mutable n_live : int;
  pos_of_id : Int_table.t;
}

let create () =
  let cap = 1024 in
  {
    ids = Array.make cap 0;
    live = Bytes.make cap '\000';
    fenwick = Array.make (cap + 1) 0;
    cap;
    n_slots = 0;
    n_live = 0;
    pos_of_id = Int_table.create ~initial_capacity:2048 ();
  }

let length t = t.n_live
let mem t id = Int_table.mem t.pos_of_id id

(* Fenwick primitives, 1-indexed over [1 .. cap]. *)

let fenwick_add t i delta =
  let i = ref i in
  while !i <= t.cap do
    t.fenwick.(!i) <- t.fenwick.(!i) + delta;
    i := !i + (!i land - !i)
  done

let fenwick_prefix t i =
  let i = ref i and s = ref 0 in
  while !i > 0 do
    s := !s + t.fenwick.(!i);
    i := !i - (!i land - !i)
  done;
  !s

(* Smallest 1-indexed position whose prefix sum reaches [target]
   (binary lifting; [cap] is a power of two). *)
let fenwick_select t target =
  let pos = ref 0 and rem = ref target and step = ref t.cap in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.cap && t.fenwick.(next) < !rem then begin
      pos := next;
      rem := !rem - t.fenwick.(next)
    end;
    step := !step / 2
  done;
  !pos + 1

(* Rebuild with the live slots only, into [new_cap] slots.  Compacting at
   the same capacity reuses the arrays, moving each live slot down to its
   new place (never above its old one); slots from [n_slots] up are
   written by [append] before anything reads them.  Fresh arrays at every
   compaction were major-heap garbage, a few words per append. *)
let rebuild t new_cap =
  let same = new_cap = t.cap in
  let ids = if same then t.ids else Array.make new_cap 0 in
  let live = if same then t.live else Bytes.make new_cap '\000' in
  let fenwick = if same then t.fenwick else Array.make (new_cap + 1) 0 in
  let k = ref 0 in
  for slot = 0 to t.n_slots - 1 do
    if Bytes.unsafe_get t.live slot = '\001' then begin
      ids.(!k) <- t.ids.(slot);
      Bytes.unsafe_set live !k '\001';
      Int_table.set t.pos_of_id t.ids.(slot) !k;
      incr k
    end
  done;
  if same then Array.fill fenwick 0 (new_cap + 1) 0;
  t.ids <- ids;
  t.live <- live;
  t.fenwick <- fenwick;
  t.cap <- new_cap;
  t.n_slots <- !k;
  for slot = 0 to !k - 1 do
    fenwick_add t (slot + 1) 1
  done

let append t id =
  if Int_table.mem t.pos_of_id id then invalid_arg "Live_index.append: id already live";
  if t.n_slots = t.cap then
    if 2 * t.n_live <= t.cap then rebuild t t.cap else rebuild t (2 * t.cap);
  let slot = t.n_slots in
  t.ids.(slot) <- id;
  Bytes.unsafe_set t.live slot '\001';
  fenwick_add t (slot + 1) 1;
  Int_table.set t.pos_of_id id slot;
  t.n_slots <- slot + 1;
  t.n_live <- t.n_live + 1

let remove_slot t slot =
  Bytes.unsafe_set t.live slot '\000';
  fenwick_add t (slot + 1) (-1);
  Int_table.remove t.pos_of_id t.ids.(slot);
  t.n_live <- t.n_live - 1

let remove_rank t id =
  let slot = Int_table.find t.pos_of_id id ~default:(-1) in
  if slot < 0 then invalid_arg "Live_index.remove_rank: id not live";
  let rank_from_end = t.n_live - fenwick_prefix t (slot + 1) in
  remove_slot t slot;
  rank_from_end

let remove_select t k =
  if k < 0 || k >= t.n_live then invalid_arg "Live_index.remove_select: rank out of range";
  let slot = fenwick_select t (t.n_live - k) - 1 in
  let id = t.ids.(slot) in
  remove_slot t slot;
  id
