open Wsc_substrate

(* Two-level radix tree over TCMalloc page numbers, the shape real TCMalloc
   uses: a root array of Bigarray leaves, each leaf mapping a page to
   1 + the owning span's slot (0 = unowned).  Leaves are Bigarray int
   vectors so the GC never scans them, and [lookup] returns the span's
   construction-time [Some] cell, so the per-free address check allocates
   nothing — against a hash plus an allocated option per probe for the old
   Hashtbl page map. *)

type leaf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable root : leaf option array;  (* page lsr leaf_bits -> leaf *)
  mutable slots : Span.t option array;  (* slot -> shared [Some span] *)
  mutable free_slots : int list;
  mutable next_slot : int;
  mutable spans : int;
}

let page_size = Units.tcmalloc_page_size
let leaf_bits = 15
let leaf_pages = 1 lsl leaf_bits  (* 32 K pages = 256 MiB of VA per leaf *)
let leaf_mask = leaf_pages - 1

let create () =
  {
    root = Array.make 64 None;
    slots = Array.make 64 None;
    free_slots = [];
    next_slot = 0;
    spans = 0;
  }

let leaf_of t hi =
  let n = Array.length t.root in
  if hi >= n then begin
    let bigger = Array.make (max (hi + 1) (2 * n)) None in
    Array.blit t.root 0 bigger 0 n;
    t.root <- bigger
  end;
  match t.root.(hi) with
  | Some leaf -> leaf
  | None ->
    let leaf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout leaf_pages in
    Bigarray.Array1.fill leaf 0;
    t.root.(hi) <- Some leaf;
    leaf

let register t span =
  let slot =
    match t.free_slots with
    | s :: rest ->
      t.free_slots <- rest;
      s
    | [] ->
      let s = t.next_slot in
      t.next_slot <- s + 1;
      let n = Array.length t.slots in
      if s >= n then begin
        let bigger = Array.make (2 * n) None in
        Array.blit t.slots 0 bigger 0 n;
        t.slots <- bigger
      end;
      s
  in
  t.slots.(slot) <- Some span;
  let first = span.Span.base / page_size in
  for page = first to first + span.Span.pages - 1 do
    let leaf = leaf_of t (page lsr leaf_bits) in
    if Bigarray.Array1.get leaf (page land leaf_mask) <> 0 then
      invalid_arg "Page_map.register: page already owned";
    Bigarray.Array1.set leaf (page land leaf_mask) (slot + 1)
  done;
  t.spans <- t.spans + 1

let unregister t span =
  let first = span.Span.base / page_size in
  let slot = ref (-1) in
  for page = first to first + span.Span.pages - 1 do
    let hi = page lsr leaf_bits in
    let leaf =
      if hi >= Array.length t.root then None else t.root.(hi)
    in
    match leaf with
    | None -> invalid_arg "Page_map.unregister: page not owned by span"
    | Some leaf ->
      let v = Bigarray.Array1.get leaf (page land leaf_mask) in
      let matches =
        v <> 0
        &&
        match t.slots.(v - 1) with
        | Some owner -> owner.Span.id = span.Span.id
        | None -> false
      in
      if not matches then invalid_arg "Page_map.unregister: page not owned by span";
      Bigarray.Array1.set leaf (page land leaf_mask) 0;
      slot := v - 1
  done;
  if !slot >= 0 then begin
    t.slots.(!slot) <- None;
    t.free_slots <- !slot :: t.free_slots
  end;
  t.spans <- t.spans - 1

let[@inline] lookup t addr =
  let page = addr / page_size in
  let hi = page lsr leaf_bits in
  if hi >= Array.length t.root then None
  else
    match Array.unsafe_get t.root hi with
    | None -> None
    | Some leaf ->
      let v = Bigarray.Array1.unsafe_get leaf (page land leaf_mask) in
      if v = 0 then None else Array.unsafe_get t.slots (v - 1)

let span_count t = t.spans

let iter_spans t f =
  Array.iter (function Some span -> f span | None -> ()) t.slots
