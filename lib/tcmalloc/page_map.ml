open Wsc_substrate

(* Two-level radix tree over TCMalloc page numbers, the shape real TCMalloc
   uses: a root array of Bigarray leaves, each leaf mapping a page to
   1 + the owning span's slot (0 = unowned).  Leaves are Bigarray int
   vectors so the GC never scans them, and [lookup] returns the span's
   construction-time [Some] cell, so the per-free address check allocates
   nothing — against a hash plus an allocated option per probe for the old
   Hashtbl page map.

   Leaf size: a leaf is created, zero-filled, at the first span on its
   pages, and most machines are short-lived with small heaps.  OCaml
   counts a Bigarray's out-of-heap bytes toward GC pacing, and bytes
   beyond [custom_minor_max_bsz] (8 KiB) speed up the major collector as
   soon as the leaf is allocated: with 256 KiB leaves (2^15 pages), 1,000
   cold allocators ran 53 major collections; with 4 KiB leaves (2^9 pages,
   two hugepages of address space) they run 10.  DESIGN.md records the
   sizes tried. *)

type leaf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable root : leaf option array;  (* page lsr leaf_bits -> leaf *)
  mutable slots : Span.t option array;  (* slot -> shared [Some span] *)
  mutable free_slots : int list;
  mutable next_slot : int;
  mutable spans : int;
}

let page_size = Units.tcmalloc_page_size
let leaf_bits = 9
let leaf_pages = 1 lsl leaf_bits  (* 512 pages = 4 MiB of VA per leaf *)
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

let[@inline] existing_leaf t hi =
  if hi >= Array.length t.root then None else Array.unsafe_get t.root hi

(* The walks below visit a span's pages one leaf at a time: [page] is the
   next page, and [stop] the last page of the span inside [page]'s leaf. *)
let[@inline] run_end ~page ~last = min last (page lor leaf_mask)

let take_slot t =
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

(* Write [v] to pages [first .. last], creating leaves as needed. *)
let fill t ~first ~last v =
  let page = ref first in
  while !page <= last do
    let stop = run_end ~page:!page ~last in
    let leaf = leaf_of t (!page lsr leaf_bits) in
    for p = !page land leaf_mask to stop land leaf_mask do
      Bigarray.Array1.unsafe_set leaf p v
    done;
    page := stop + 1
  done

let register t span =
  let first = span.Span.base / page_size in
  let last = first + span.Span.pages - 1 in
  (* Check every page before writing any, so a rejected span leaves the
     map as it was.  Pages of a leaf not yet created are unowned. *)
  let page = ref first in
  while !page <= last do
    let stop = run_end ~page:!page ~last in
    (match existing_leaf t (!page lsr leaf_bits) with
    | None -> ()
    | Some leaf ->
      for p = !page land leaf_mask to stop land leaf_mask do
        if Bigarray.Array1.unsafe_get leaf p <> 0 then
          invalid_arg "Page_map.register: page already owned"
      done);
    page := stop + 1
  done;
  let slot = take_slot t in
  t.slots.(slot) <- Some span;
  fill t ~first ~last (slot + 1);
  t.spans <- t.spans + 1

let not_owned () = invalid_arg "Page_map.unregister: page not owned by span"

let unregister t span =
  let first = span.Span.base / page_size in
  let last = first + span.Span.pages - 1 in
  (* Check every page first: all must map to one slot, and that slot must
     hold this span.  Only then clear. *)
  let value = ref 0 in
  let page = ref first in
  while !page <= last do
    let stop = run_end ~page:!page ~last in
    (match existing_leaf t (!page lsr leaf_bits) with
    | None -> not_owned ()
    | Some leaf ->
      for p = !page land leaf_mask to stop land leaf_mask do
        let v = Bigarray.Array1.unsafe_get leaf p in
        if v = 0 then not_owned ()
        else if v <> !value then begin
          if !value <> 0 then not_owned ();
          (match t.slots.(v - 1) with
          | Some owner when owner.Span.id = span.Span.id -> ()
          | Some _ | None -> not_owned ());
          value := v
        end
      done);
    page := stop + 1
  done;
  fill t ~first ~last 0;
  if !value > 0 then begin
    t.slots.(!value - 1) <- None;
    t.free_slots <- (!value - 1) :: t.free_slots
  end;
  t.spans <- t.spans - 1

let[@inline] lookup t addr =
  let page = addr / page_size in
  match existing_leaf t (page lsr leaf_bits) with
  | None -> None
  | Some leaf ->
    let v = Bigarray.Array1.unsafe_get leaf (page land leaf_mask) in
    if v = 0 then None else Array.unsafe_get t.slots (v - 1)

let span_count t = t.spans

let iter_spans t f =
  Array.iter (function Some span -> f span | None -> ()) t.slots
