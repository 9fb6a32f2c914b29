open Wsc_substrate

type addr = int

type t = {
  id : int;
  base : addr;
  pages : int;
  size_class : int;
  obj_size : int;
  capacity : int;
  mutable outstanding : int;
  mutable next_fresh : int;
  mutable returned : int array;
  mutable n_returned : int;
  slot_state : Bytes.t;
  mutable list_index : int;
  mutable held_slot : int;
  birth_time : float;
}

type slot_state = Free | Held | Cached

(* Per-slot byte encoding of [slot_state]. *)
let free_byte = '\000'
let held_byte = '\001'
let cached_byte = '\002'

let page_size = Units.tcmalloc_page_size

let create_small ~id ~base ~size_class ~birth_time =
  let info = Size_class.info size_class in
  {
    id;
    base;
    pages = info.pages;
    size_class;
    obj_size = info.size;
    capacity = info.capacity;
    outstanding = 0;
    next_fresh = 0;
    returned = [||];
    n_returned = 0;
    slot_state = Bytes.make info.capacity free_byte;
    list_index = -1;
    held_slot = -1;
    birth_time;
  }

let create_large ~id ~base ~pages ~birth_time =
  {
    id;
    base;
    pages;
    size_class = -1;
    obj_size = pages * page_size;
    capacity = 1;
    outstanding = 0;
    next_fresh = 0;
    returned = [||];
    n_returned = 0;
    slot_state = Bytes.make 1 free_byte;
    list_index = -1;
    held_slot = -1;
    birth_time;
  }

let span_bytes t = t.pages * page_size
let is_large t = t.size_class < 0
let free_objects t = t.capacity - t.outstanding
let is_exhausted t = t.outstanding = t.capacity
let is_idle t = t.outstanding = 0

let pop_object t =
  if is_large t then begin
    if t.outstanding > 0 then invalid_arg "Span.pop_object: large span already taken";
    t.outstanding <- 1;
    t.base
  end
  else begin
    (* Returned slots first, most recent first; then never-issued slots
       from the span base up, matching the address-order carving of the
       real allocator. *)
    let slot =
      if t.n_returned > 0 then begin
        t.n_returned <- t.n_returned - 1;
        Array.unsafe_get t.returned t.n_returned
      end
      else if t.next_fresh < t.capacity then begin
        let slot = t.next_fresh in
        t.next_fresh <- slot + 1;
        slot
      end
      else invalid_arg "Span.pop_object: exhausted"
    in
    assert (Bytes.get t.slot_state slot = free_byte);
    Bytes.set t.slot_state slot cached_byte;
    t.outstanding <- t.outstanding + 1;
    t.base + (slot * t.obj_size)
  end

let pop_objects_into t ~n ~buf ~pos =
  let k = min n (free_objects t) in
  for i = 0 to k - 1 do
    buf.(pos + i) <- pop_object t
  done;
  k

let contains t addr = addr >= t.base && addr < t.base + span_bytes t

(* Slot index of an object address, with one division; [fn] names the
   caller in the errors. *)
let[@inline] slot_of ~fn t addr =
  if not (contains t addr) then invalid_arg (fn ^ ": address outside span");
  let offset = addr - t.base in
  let slot = offset / t.obj_size in
  if slot * t.obj_size <> offset then invalid_arg (fn ^ ": misaligned object");
  slot

(* Most spans of a short-lived heap never get an object back, so the
   returned-slot stack has no storage until its first push. *)
let push_returned t slot =
  let n = t.n_returned in
  if n = Array.length t.returned then begin
    let bigger = Array.make (max 8 (2 * n)) 0 in
    Array.blit t.returned 0 bigger 0 n;
    t.returned <- bigger
  end;
  Array.unsafe_set t.returned n slot;
  t.n_returned <- n + 1

let push_object t addr =
  if is_large t then begin
    if not (contains t addr) then invalid_arg "Span.push_object: address outside span";
    if t.outstanding = 0 then invalid_arg "Span.push_object: large span double free";
    t.outstanding <- 0
  end
  else begin
    let slot = slot_of ~fn:"Span.push_object" t addr in
    if Bytes.get t.slot_state slot = free_byte then
      invalid_arg "Span.push_object: double free";
    Bytes.set t.slot_state slot free_byte;
    push_returned t slot;
    t.outstanding <- t.outstanding - 1
  end

let[@inline] state_of_byte b =
  if b = free_byte then Free else if b = held_byte then Held else Cached

let slot_state t addr =
  if is_large t then invalid_arg "Span.slot_state: large span";
  state_of_byte (Bytes.get t.slot_state (slot_of ~fn:"Span.slot_state" t addr))

(* Cached <-> Held relabels an object without moving it.  Compare-and-set:
   the slot changes only when it is in [from], and the state found is
   returned so the caller can name what went wrong. *)
let[@inline] relabel ~fn t addr ~from ~into =
  if is_large t then invalid_arg (fn ^ ": large span");
  let slot = slot_of ~fn t addr in
  let b = Bytes.get t.slot_state slot in
  if b = from then Bytes.set t.slot_state slot into;
  state_of_byte b

let mark_held t addr = relabel ~fn:"Span.mark_held" t addr ~from:cached_byte ~into:held_byte
let mark_cached t addr = relabel ~fn:"Span.mark_cached" t addr ~from:held_byte ~into:cached_byte

let count_slots t state =
  if is_large t then 0
  else begin
    let b = match state with Free -> free_byte | Held -> held_byte | Cached -> cached_byte in
    let n = ref 0 in
    for slot = 0 to t.capacity - 1 do
      if Bytes.unsafe_get t.slot_state slot = b then incr n
    done;
    !n
  end

let fragmented_bytes t = free_objects t * t.obj_size
let set_list_index t i = t.list_index <- i
let set_held_slot t i = t.held_slot <- i
