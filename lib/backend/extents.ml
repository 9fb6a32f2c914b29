(* Free extents in three parallel arrays sorted by base address.  A free
   touches at most its two neighbours: extents are always fully coalesced,
   because every free merges with both sides and first fit only shortens
   an extent from its front. *)

type chunk = { c_base : int; c_hugepages : int; c_pages : int }

type t = {
  page_size : int;
  mutable bases : int array;
  mutable pages : int array;
  mutable chunks : chunk array;
  mutable n : int;
}

(* Fills unused chunk slots, so a removed extent's chunk is not kept
   reachable. *)
let no_chunk = { c_base = -1; c_hugepages = 0; c_pages = 0 }

let create ~page_size =
  {
    page_size;
    bases = Array.make 16 0;
    pages = Array.make 16 0;
    chunks = Array.make 16 no_chunk;
    n = 0;
  }

let grow t =
  let cap = 2 * Array.length t.bases in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.bases <- extend t.bases 0;
  t.pages <- extend t.pages 0;
  t.chunks <- extend t.chunks no_chunk

(* Insert an extent at index [i], shifting the later ones up. *)
let insert_at t i ~base ~pages chunk =
  if t.n = Array.length t.bases then grow t;
  let later = t.n - i in
  Array.blit t.bases i t.bases (i + 1) later;
  Array.blit t.pages i t.pages (i + 1) later;
  Array.blit t.chunks i t.chunks (i + 1) later;
  t.bases.(i) <- base;
  t.pages.(i) <- pages;
  t.chunks.(i) <- chunk;
  t.n <- t.n + 1

let remove_at t i =
  let later = t.n - i - 1 in
  Array.blit t.bases (i + 1) t.bases i later;
  Array.blit t.pages (i + 1) t.pages i later;
  Array.blit t.chunks (i + 1) t.chunks i later;
  t.n <- t.n - 1;
  t.chunks.(t.n) <- no_chunk

(* Index of the first extent whose base is not below [base]. *)
let search t base =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.bases.(mid) < base then lo := mid + 1 else hi := mid
  done;
  !lo

let add_chunk t chunk =
  insert_at t (search t chunk.c_base) ~base:chunk.c_base ~pages:chunk.c_pages chunk

let alloc t ~pages =
  let i = ref 0 in
  while !i < t.n && t.pages.(!i) < pages do
    incr i
  done;
  let i = !i in
  if i = t.n then None
  else begin
    let base = t.bases.(i) and chunk = t.chunks.(i) in
    if t.pages.(i) > pages then begin
      t.bases.(i) <- base + (pages * t.page_size);
      t.pages.(i) <- t.pages.(i) - pages
    end
    else remove_at t i;
    Some (base, chunk)
  end

let free t ~base ~pages chunk =
  let i = search t base in
  let left =
    i > 0 && t.chunks.(i - 1) == chunk && t.bases.(i - 1) + (t.pages.(i - 1) * t.page_size) = base
  in
  let right = i < t.n && t.chunks.(i) == chunk && base + (pages * t.page_size) = t.bases.(i) in
  let merged =
    match (left, right) with
    | true, true ->
      t.pages.(i - 1) <- t.pages.(i - 1) + pages + t.pages.(i);
      remove_at t i;
      i - 1
    | true, false ->
      t.pages.(i - 1) <- t.pages.(i - 1) + pages;
      i - 1
    | false, true ->
      t.bases.(i) <- base;
      t.pages.(i) <- pages + t.pages.(i);
      i
    | false, false ->
      insert_at t i ~base ~pages chunk;
      i
  in
  let whole = t.pages.(merged) = chunk.c_pages in
  if whole then remove_at t merged;
  whole

let iter t f =
  for i = 0 to t.n - 1 do
    f ~base:t.bases.(i) ~pages:t.pages.(i) t.chunks.(i)
  done
