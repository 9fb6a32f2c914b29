(* Reference hugepage filler for the differential test in
   test_properties.ml: the densest-first filler before its occupancy index,
   first-free index and lazily created bucket tables.  Every placement
   scans each free-count bucket from [pages] up, looking each candidate up
   by base.  The production filler must return the same addresses, free
   outcomes and release counts for any operation sequence. *)

open Wsc_substrate

type addr = int
type set_kind = Long_lived | Short_lived

let kind_slot = function Long_lived -> 0 | Short_lived -> 1
let pages_per_hugepage = Units.pages_per_hugepage
let page_size = Units.tcmalloc_page_size
let hugepage_size = Units.hugepage_size

(* page states *)
let st_free = '\000'
let st_used = '\001'
let st_released = '\002'

type hugepage = {
  base : addr;
  page_state : Bytes.t;
  mutable free_count : int;
  mutable used_count : int;
  mutable released_count : int;
  kind : set_kind;
}

type t = {
  hugepages : (addr, hugepage) Hashtbl.t;
  (* buckets.(kind).(free_count) = hugepage bases with that many free pages *)
  buckets : (addr, unit) Hashtbl.t array array;
  mutable used_pages : int;
  mutable free_pages : int;
  mutable released_pages : int;
}

let create () =
  {
    hugepages = Hashtbl.create 256;
    buckets =
      Array.init 2 (fun _ -> Array.init (pages_per_hugepage + 1) (fun _ -> Hashtbl.create 4));
    used_pages = 0;
    free_pages = 0;
    released_pages = 0;
  }

let bucket_of t hp = t.buckets.(kind_slot hp.kind).(hp.free_count)
let bucket_remove t hp = Hashtbl.remove (bucket_of t hp) hp.base
let bucket_insert t hp = Hashtbl.replace (bucket_of t hp) hp.base ()

let hugepage_of_addr t a =
  match Hashtbl.find_opt t.hugepages (a - (a mod hugepage_size)) with
  | Some hp -> hp
  | None -> invalid_arg "Hugepage_filler: address not in a tracked hugepage"

let add_hugepage t ~base ~kind ~donated:_ ~t_used =
  if Hashtbl.mem t.hugepages base then
    invalid_arg "Hugepage_filler.add_hugepage: already tracked";
  if t_used < 0 || t_used > pages_per_hugepage then
    invalid_arg "Hugepage_filler.add_hugepage: bad used prefix";
  let page_state = Bytes.make pages_per_hugepage st_free in
  for i = 0 to t_used - 1 do
    Bytes.set page_state i st_used
  done;
  let hp =
    {
      base;
      page_state;
      free_count = pages_per_hugepage - t_used;
      used_count = t_used;
      released_count = 0;
      kind;
    }
  in
  Hashtbl.replace t.hugepages base hp;
  bucket_insert t hp;
  t.used_pages <- t.used_pages + t_used;
  t.free_pages <- t.free_pages + hp.free_count

(* First free run of length [n] in the hugepage, or -1. *)
let find_run hp n =
  let rec scan i run_start run_len =
    if run_len = n then run_start
    else if i = pages_per_hugepage then -1
    else if Bytes.get hp.page_state i = st_free then
      scan (i + 1) (if run_len = 0 then i else run_start) (run_len + 1)
    else scan (i + 1) 0 0
  in
  scan 0 0 0

let mark hp first n state delta_used delta_free =
  for i = first to first + n - 1 do
    Bytes.set hp.page_state i state
  done;
  hp.used_count <- hp.used_count + delta_used;
  hp.free_count <- hp.free_count + delta_free

let allocate t ~kind ~pages =
  if pages <= 0 || pages >= pages_per_hugepage then
    invalid_arg "Hugepage_filler.allocate: pages must be in (0, 256)";
  let slot = kind_slot kind in
  (* Densest-first: scan buckets from the fewest free pages able to fit. *)
  let found = ref None in
  let f = ref pages in
  while !found = None && !f <= pages_per_hugepage do
    let bucket = t.buckets.(slot).(!f) in
    (try
       Hashtbl.iter
         (fun base () ->
           let hp = Hashtbl.find t.hugepages base in
           let run = find_run hp pages in
           if run >= 0 then begin
             found := Some (hp, run);
             raise Exit
           end)
         bucket
     with Exit -> ());
    incr f
  done;
  match !found with
  | None -> None
  | Some (hp, run) ->
    bucket_remove t hp;
    mark hp run pages st_used pages (-pages);
    bucket_insert t hp;
    t.used_pages <- t.used_pages + pages;
    t.free_pages <- t.free_pages - pages;
    Some (hp.base + (run * page_size))

type free_outcome = Still_tracked | Hugepage_empty of addr

let free t a ~pages =
  let hp = hugepage_of_addr t a in
  let first = (a - hp.base) / page_size in
  if first + pages > pages_per_hugepage then
    invalid_arg "Hugepage_filler.free: run exceeds hugepage";
  for i = first to first + pages - 1 do
    if Bytes.get hp.page_state i <> st_used then
      invalid_arg "Hugepage_filler.free: page not in use"
  done;
  bucket_remove t hp;
  mark hp first pages st_free (-pages) pages;
  t.used_pages <- t.used_pages - pages;
  t.free_pages <- t.free_pages + pages;
  if hp.used_count = 0 then begin
    (* Fully drained: stop tracking; caller unmaps or caches it. *)
    Hashtbl.remove t.hugepages hp.base;
    t.free_pages <- t.free_pages - hp.free_count;
    t.released_pages <- t.released_pages - hp.released_count;
    Hugepage_empty hp.base
  end
  else begin
    bucket_insert t hp;
    Still_tracked
  end

let subrelease t vm ~max_pages =
  (* Sparsest-first: hugepages with the most free pages yield the most
     memory per broken hugepage. *)
  let released = ref 0 in
  let f = ref (pages_per_hugepage - 1) in
  while !released < max_pages && !f > 0 do
    for slot = 0 to 1 do
      if !released < max_pages then begin
        let bucket = t.buckets.(slot).(!f) in
        let bases = Hashtbl.fold (fun base () acc -> base :: acc) bucket [] in
        List.iter
          (fun base ->
            if !released < max_pages then begin
              let hp = Hashtbl.find t.hugepages base in
              let want = min hp.free_count (max_pages - !released) in
              if want > 0 then begin
                bucket_remove t hp;
                (* Release [want] free pages, scanning from the end where
                   frees accumulate. *)
                let remaining = ref want in
                for i = pages_per_hugepage - 1 downto 0 do
                  if !remaining > 0 && Bytes.get hp.page_state i = st_free then begin
                    Bytes.set hp.page_state i st_released;
                    decr remaining
                  end
                done;
                hp.free_count <- hp.free_count - want;
                hp.released_count <- hp.released_count + want;
                t.free_pages <- t.free_pages - want;
                t.released_pages <- t.released_pages + want;
                Wsc_os.Vm.subrelease vm hp.base ~pages:want;
                bucket_insert t hp;
                released := !released + want
              end
            end)
          bases
      end
    done;
    decr f
  done;
  !released

let tracked_hugepages t = Hashtbl.length t.hugepages
let used_pages t = t.used_pages
let free_pages t = t.free_pages
let released_pages t = t.released_pages
let used_bytes t = t.used_pages * page_size
let free_bytes t = t.free_pages * page_size

let iter_hugepages t f =
  Hashtbl.iter (fun base hp -> f ~base ~used_pages:hp.used_count) t.hugepages
