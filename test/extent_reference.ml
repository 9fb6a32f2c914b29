(* Reference extent allocator for the differential test in
   test_properties.ml: the jemalloc arena's free extents as they were
   before Wsc_backend.Extents, an address-sorted list rebuilt on every
   call.  A free inserts the run, merges every address-adjacent pair of
   the same chunk over the whole list, and takes out every extent that
   covers its whole chunk.  The production extents must return the same
   runs, unmap the same chunks in the same order and hold the same
   extents after every operation. *)

type chunk = Wsc_backend.Extents.chunk = { c_base : int; c_hugepages : int; c_pages : int }
type extent = { x_base : int; x_pages : int; x_chunk : chunk }
type t = { page_size : int; mutable extents : extent list  (* ascending base *) }

let create ~page_size = { page_size; extents = [] }

let add_chunk t chunk =
  let extent = { x_base = chunk.c_base; x_pages = chunk.c_pages; x_chunk = chunk } in
  let rec ins = function
    | [] -> [ extent ]
    | x :: rest when x.x_base < chunk.c_base -> x :: ins rest
    | rest -> extent :: rest
  in
  t.extents <- ins t.extents

let alloc t ~pages =
  let rec take acc = function
    | [] -> None
    | x :: rest when x.x_pages >= pages ->
      let remainder =
        if x.x_pages > pages then
          [ { x_base = x.x_base + (pages * t.page_size); x_pages = x.x_pages - pages;
              x_chunk = x.x_chunk } ]
        else []
      in
      t.extents <- List.rev_append acc (remainder @ rest);
      Some (x.x_base, x.x_chunk)
    | x :: rest -> take (x :: acc) rest
  in
  take [] t.extents

(* The chunks that coalesced back whole, in the order they are unmapped. *)
let free t ~base ~pages chunk =
  let extent = { x_base = base; x_pages = pages; x_chunk = chunk } in
  let rec ins = function
    | [] -> [ extent ]
    | x :: rest when x.x_base < extent.x_base -> x :: ins rest
    | rest -> extent :: rest
  in
  let merged =
    let rec merge = function
      | a :: b :: rest
        when a.x_chunk == b.x_chunk && a.x_base + (a.x_pages * t.page_size) = b.x_base ->
        merge ({ a with x_pages = a.x_pages + b.x_pages } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    merge (ins t.extents)
  in
  let whole, kept = List.partition (fun x -> x.x_pages = x.x_chunk.c_pages) merged in
  t.extents <- kept;
  List.map (fun x -> x.x_chunk) whole

let iter t f = List.iter (fun x -> f ~base:x.x_base ~pages:x.x_pages x.x_chunk) t.extents
