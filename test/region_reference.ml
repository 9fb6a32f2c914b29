(* Reference hugepage region for the differential test in
   test_properties.ml: the region before its skip-ahead first fit.  Every
   placement scans each region forward from page 0, counting free pages
   until a run is long enough.  The production region must return the same
   addresses, counts and per-hugepage occupancy, and raise the same errors,
   for any operation sequence. *)

open Wsc_substrate

type addr = int

type region = {
  base : addr;
  total_pages : int;
  page_used : Bytes.t;
  mutable used_count : int;
}

type t = {
  vm : Wsc_os.Vm.t;
  hugepages_per_region : int;
  mutable regions : region list;
  mutable used_pages : int;
}

let page_size = Units.tcmalloc_page_size
let pages_per_hugepage = Units.pages_per_hugepage

let create vm ~hugepages_per_region =
  if hugepages_per_region <= 0 then
    invalid_arg "Hugepage_region.create: need positive region size";
  { vm; hugepages_per_region; regions = []; used_pages = 0 }

let find_run region n =
  let total = region.total_pages in
  let rec scan i run_start run_len =
    if run_len = n then run_start
    else if i = total then -1
    else if Bytes.get region.page_used i = '\000' then
      scan (i + 1) (if run_len = 0 then i else run_start) (run_len + 1)
    else scan (i + 1) 0 0
  in
  scan 0 0 0

let mark region first n used =
  let c = if used then '\001' else '\000' in
  for i = first to first + n - 1 do
    Bytes.set region.page_used i c
  done;
  region.used_count <- (region.used_count + if used then n else -n)

let new_region t =
  let base = Wsc_os.Vm.mmap t.vm ~hugepages:t.hugepages_per_region in
  let total_pages = t.hugepages_per_region * pages_per_hugepage in
  let region = { base; total_pages; page_used = Bytes.make total_pages '\000'; used_count = 0 } in
  t.regions <- region :: t.regions;
  region

let allocate t ~pages =
  if pages <= 0 || pages > t.hugepages_per_region * pages_per_hugepage then
    invalid_arg "Hugepage_region.allocate: run exceeds region size";
  let rec try_regions = function
    | [] ->
      let region = new_region t in
      let run = find_run region pages in
      assert (run = 0);
      (region, run)
    | region :: rest ->
      let run = find_run region pages in
      if run >= 0 then (region, run) else try_regions rest
  in
  let region, run = try_regions t.regions in
  mark region run pages true;
  t.used_pages <- t.used_pages + pages;
  region.base + (run * page_size)

let region_of t a =
  let rec search = function
    | [] -> invalid_arg "Hugepage_region.free: address not in any region"
    | region :: rest ->
      if a >= region.base && a < region.base + (region.total_pages * page_size) then region
      else search rest
  in
  search t.regions

let free t a ~pages =
  let region = region_of t a in
  let first = (a - region.base) / page_size in
  if first + pages > region.total_pages then
    invalid_arg "Hugepage_region.free: run exceeds region";
  for i = first to first + pages - 1 do
    if Bytes.get region.page_used i <> '\001' then
      invalid_arg "Hugepage_region.free: page not in use"
  done;
  mark region first pages false;
  t.used_pages <- t.used_pages - pages;
  if region.used_count = 0 then begin
    t.regions <- List.filter (fun r -> r.base <> region.base) t.regions;
    Wsc_os.Vm.munmap t.vm region.base ~hugepages:t.hugepages_per_region
  end

let regions t = List.length t.regions
let used_pages t = t.used_pages

let free_pages t =
  List.fold_left (fun acc r -> acc + r.total_pages - r.used_count) 0 t.regions

let used_bytes t = used_pages t * page_size
let free_bytes t = free_pages t * page_size

let iter_hugepages t f =
  List.iter
    (fun region ->
      for hp = 0 to (region.total_pages / pages_per_hugepage) - 1 do
        let used = ref 0 in
        for p = hp * pages_per_hugepage to ((hp + 1) * pages_per_hugepage) - 1 do
          if Bytes.get region.page_used p = '\001' then incr used
        done;
        f ~base:(region.base + (hp * Units.hugepage_size)) ~used_pages:!used
      done)
    t.regions
