(* Order-statistic index over the live-object set, in allocation order.

   Both codec sides keep one of these in lockstep: the encoder turns a
   freed id into its recency rank (how many live objects were allocated
   after it), the decoder turns that rank back into the id.  Because most
   objects die young (Fig. 8), recency ranks are small and varint-encode in
   1-2 bytes where raw ids need 3-4 — the single biggest win of the binary
   format.

   Representation: an append-only slot array in allocation order and a
   bitmap of its live slots, 32 to a word, with a live count per block of
   16 words (512 slots) and per group of 16 blocks (8,192 slots).  An
   append or a removal sets or clears one bit and moves two counts.  Rank
   and select count from the newest slot down: whole groups, then blocks of
   one group, then words of one block, then bits of one word, so the small
   recency ranks most frees have stay in the newest word or two.  Dead
   slots are tombstones; when the array fills and at least half the slots
   are dead, the live slots are compacted in place of growing, so memory
   stays proportional to the peak live set, not the trace length.

   The id -> slot table ([Substrate.Int_table]) is built only once an id
   must be looked up: at the first [remove_rank] (the encoder's side), at
   the first appended id that does not exceed the largest one so far (text
   traces, salvage remaps), or at the first [mem] of such an id.  An id
   above every appended one cannot be live, so decoding a recorded trace,
   whose ids only increase, hashes nothing.  The table reserves [min_int]
   and [min_int + 1] as slot markers, so those two ids cannot be indexed;
   the codec rejects them where traces enter. *)

open Wsc_substrate

(* A slot's word, block and group are its index shifted right by these. *)
let word_shift = 5
let block_shift = 9
let group_shift = 13

(* The last word of block [b] and the last block of group [g]. *)
let[@inline] last_word b = ((b + 1) lsl (block_shift - word_shift)) - 1
let[@inline] last_block g = ((g + 1) lsl (group_shift - block_shift)) - 1

type t = {
  mutable ids : int array;  (* slot -> id, in allocation order *)
  mutable bits : int array;  (* slot [32w + i] is live iff bit i of word w is set *)
  mutable block_live : int array;  (* live slots per block *)
  mutable group_live : int array;  (* live slots per group *)
  mutable n_slots : int;  (* next append position *)
  mutable n_live : int;
  mutable max_id : int;  (* largest id ever appended; [min_int] before any *)
  mutable pos_of_id : Int_table.t option;  (* id -> slot, once an id is looked up *)
}

(* Array lengths for [cap] slots (a power of two, at least 1024). *)
let units cap shift = (cap + (1 lsl shift) - 1) lsr shift

let initial_cap = 1024

let create () =
  {
    ids = Array.make initial_cap 0;
    bits = Array.make (units initial_cap word_shift) 0;
    block_live = Array.make (units initial_cap block_shift) 0;
    group_live = Array.make (units initial_cap group_shift) 0;
    n_slots = 0;
    n_live = 0;
    max_id = min_int;
    pos_of_id = None;
  }

let length t = t.n_live

(* Set bits of a 32-bit word. *)
let[@inline] popcount w =
  let w = w - ((w lsr 1) land 0x5555_5555) in
  let w = (w land 0x3333_3333) + ((w lsr 2) land 0x3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f in
  ((w * 0x0101_0101) lsr 24) land 0xff

(* [byte_select.[8 * b + k]] is the position of the set bit of byte [b]
   that has [k] set bits above it. *)
let byte_select =
  let s = Bytes.make 2048 '\000' in
  for b = 0 to 255 do
    let k = ref 0 in
    for i = 7 downto 0 do
      if b land (1 lsl i) <> 0 then begin
        Bytes.set s ((8 * b) + !k) (Char.chr i);
        incr k
      end
    done
  done;
  Bytes.unsafe_to_string s

(* Position of the set bit of the 32-bit word [w] that has [k] set bits
   above it ([k < popcount w]): whole bytes from the top, then a lookup. *)
let select_in_word w k =
  let k = ref k and shift = ref 24 in
  let c = ref (popcount (w lsr 24)) in
  while !k >= !c do
    k := !k - !c;
    shift := !shift - 8;
    c := popcount ((w lsr !shift) land 0xff)
  done;
  let byte = (w lsr !shift) land 0xff in
  !shift + Char.code (String.unsafe_get byte_select ((byte lsl 3) lor !k))

let[@inline] is_live t slot = (t.bits.(slot lsr word_shift) lsr (slot land 31)) land 1 = 1

(* Live slots above [slot]: the rest of its word, the later words of its
   block, the later blocks of its group and the later groups. *)
let rank_above t slot =
  let top = t.n_slots - 1 in
  let w = slot lsr word_shift and b = slot lsr block_shift and g = slot lsr group_shift in
  let r = ref (popcount (t.bits.(w) lsr ((slot land 31) + 1))) in
  for w = w + 1 to Int.min (last_word b) (top lsr word_shift) do
    r := !r + popcount t.bits.(w)
  done;
  for b = b + 1 to Int.min (last_block g) (top lsr block_shift) do
    r := !r + t.block_live.(b)
  done;
  for g = g + 1 to top lsr group_shift do
    r := !r + t.group_live.(g)
  done;
  !r

(* The live slot with [k] live slots above it ([k < n_live]). *)
let select_from_newest t k =
  let top = t.n_slots - 1 in
  let groups = t.group_live and blocks = t.block_live and bits = t.bits in
  let k = ref k in
  let g = ref (top lsr group_shift) in
  while !k >= groups.(!g) do
    k := !k - groups.(!g);
    decr g
  done;
  let b = ref (Int.min (last_block !g) (top lsr block_shift)) in
  while !k >= blocks.(!b) do
    k := !k - blocks.(!b);
    decr b
  done;
  let w = ref (Int.min (last_word !b) (top lsr word_shift)) in
  let c = ref (popcount bits.(!w)) in
  while !k >= !c do
    k := !k - !c;
    decr w;
    c := popcount bits.(!w)
  done;
  (!w lsl word_shift) + select_in_word bits.(!w) !k

let table t =
  match t.pos_of_id with
  | Some tbl -> tbl
  | None ->
    let tbl = Int_table.create ~initial_capacity:(2 * Array.length t.ids) () in
    for slot = 0 to t.n_slots - 1 do
      if is_live t slot then Int_table.set tbl t.ids.(slot) slot
    done;
    t.pos_of_id <- Some tbl;
    tbl

(* An id above every one appended so far cannot be live. *)
let mem t id = id <= t.max_id && Int_table.mem (table t) id

(* Move the live slots, in order, to the front of arrays of [cap] slots.
   Compacting at the same capacity reuses the arrays (a live slot only
   moves down); fresh arrays at every compaction were major-heap garbage,
   a few words per append. *)
let rebuild t cap =
  let same = cap = Array.length t.ids in
  let ids = if same then t.ids else Array.make cap 0 in
  let n = ref 0 in
  for slot = 0 to t.n_slots - 1 do
    if is_live t slot then begin
      let id = t.ids.(slot) in
      ids.(!n) <- id;
      (match t.pos_of_id with Some tbl -> Int_table.set tbl id !n | None -> ());
      incr n
    end
  done;
  let n = !n in
  (* Slots [0, n) are now the live ones: entry [i] of [a] covers the
     [1 lsl shift] slots from [i lsl shift] and gets [f] of how many of
     them are live. *)
  let fill a shift f =
    let a = if same then a else Array.make (units cap shift) 0 in
    for i = 0 to Array.length a - 1 do
      a.(i) <- f (Int.max 0 (Int.min (1 lsl shift) (n - (i lsl shift))))
    done;
    a
  in
  t.ids <- ids;
  t.bits <- fill t.bits word_shift (fun live -> (1 lsl live) - 1);
  t.block_live <- fill t.block_live block_shift Fun.id;
  t.group_live <- fill t.group_live group_shift Fun.id;
  t.n_slots <- n

let append t id =
  if id > t.max_id then t.max_id <- id
  else if Int_table.mem (table t) id then invalid_arg "Live_index.append: id already live";
  let cap = Array.length t.ids in
  if t.n_slots = cap then rebuild t (if 2 * t.n_live <= cap then cap else 2 * cap);
  let slot = t.n_slots in
  t.ids.(slot) <- id;
  let w = slot lsr word_shift and b = slot lsr block_shift and g = slot lsr group_shift in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (slot land 31));
  t.block_live.(b) <- t.block_live.(b) + 1;
  t.group_live.(g) <- t.group_live.(g) + 1;
  (match t.pos_of_id with Some tbl -> Int_table.set tbl id slot | None -> ());
  t.n_slots <- slot + 1;
  t.n_live <- t.n_live + 1

let remove_slot t slot =
  let w = slot lsr word_shift and b = slot lsr block_shift and g = slot lsr group_shift in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl (slot land 31));
  t.block_live.(b) <- t.block_live.(b) - 1;
  t.group_live.(g) <- t.group_live.(g) - 1;
  t.n_live <- t.n_live - 1

let remove_rank t id =
  let tbl = table t in
  let slot = Int_table.find tbl id ~default:(-1) in
  if slot < 0 then invalid_arg "Live_index.remove_rank: id not live";
  let rank = rank_above t slot in
  Int_table.remove tbl id;
  remove_slot t slot;
  rank

let remove_select t k =
  if k < 0 || k >= t.n_live then invalid_arg "Live_index.remove_select: rank out of range";
  let slot = select_from_newest t k in
  let id = t.ids.(slot) in
  (match t.pos_of_id with Some tbl -> Int_table.remove tbl id | None -> ());
  remove_slot t slot;
  id
