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
  returned_slots : Int_stack.t;
  slot_taken : Bytes.t;
  mutable list_index : int;
  birth_time : float;
}

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
    returned_slots = Int_stack.create ();
    slot_taken = Bytes.make info.capacity '\000';
    list_index = -1;
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
    returned_slots = Int_stack.create ~initial_capacity:1 ();
    slot_taken = Bytes.make 1 '\000';
    list_index = -1;
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
      if not (Int_stack.is_empty t.returned_slots) then Int_stack.pop t.returned_slots
      else if t.next_fresh < t.capacity then begin
        let slot = t.next_fresh in
        t.next_fresh <- slot + 1;
        slot
      end
      else invalid_arg "Span.pop_object: exhausted"
    in
    assert (Bytes.get t.slot_taken slot = '\000');
    Bytes.set t.slot_taken slot '\001';
    t.outstanding <- t.outstanding + 1;
    t.base + (slot * t.obj_size)
  end

let pop_objects t ~n =
  let k = min n (free_objects t) in
  List.init k (fun _ -> pop_object t)

let pop_objects_into t ~n ~buf ~pos =
  let k = min n (free_objects t) in
  for i = 0 to k - 1 do
    buf.(pos + i) <- pop_object t
  done;
  k

let contains t addr = addr >= t.base && addr < t.base + span_bytes t

let push_object t addr =
  if not (contains t addr) then invalid_arg "Span.push_object: address outside span";
  if is_large t then begin
    if t.outstanding = 0 then invalid_arg "Span.push_object: large span double free";
    t.outstanding <- 0
  end
  else begin
    let offset = addr - t.base in
    if offset mod t.obj_size <> 0 then invalid_arg "Span.push_object: misaligned object";
    let slot = offset / t.obj_size in
    if Bytes.get t.slot_taken slot = '\000' then
      invalid_arg "Span.push_object: double free";
    Bytes.set t.slot_taken slot '\000';
    Int_stack.push t.returned_slots slot;
    t.outstanding <- t.outstanding - 1
  end

let object_is_free t addr =
  if not (contains t addr) then invalid_arg "Span.object_is_free: address outside span";
  if is_large t then t.outstanding = 0
  else begin
    let offset = addr - t.base in
    offset mod t.obj_size = 0 && Bytes.get t.slot_taken (offset / t.obj_size) = '\000'
  end

let fragmented_bytes t = free_objects t * t.obj_size
let set_list_index t i = t.list_index <- i
