open Wsc_substrate

type addr = int

let pages_per_hugepage = Units.pages_per_hugepage
let page_size = Units.tcmalloc_page_size
let hugepage_size = Units.hugepage_size

type placement =
  | In_filler
  | In_region
  | In_cache of { run_base : addr; full_hugepages : int; tail_pages : int }

type t = {
  config : Config.t;
  vm : Wsc_os.Vm.t;
  filler : Hugepage_filler.t;
  region : Hugepage_region.t;
  cache : Hugepage_cache.t;
  page_map : Page_map.t;
  (* Large spans only: a small span always lives in the filler, and the
     page map already tells whether this pageheap carved it. *)
  placements : (int, placement) Hashtbl.t;
  mutable small_spans : int;
  mutable next_span_id : int;
  mutable cache_used_pages : int;  (* pages of large spans on whole hugepages *)
}

let create ?(config = Config.baseline) vm =
  {
    config;
    vm;
    filler = Hugepage_filler.create ();
    region = Hugepage_region.create vm ~hugepages_per_region:32;
    cache = Hugepage_cache.create vm;
    page_map = Page_map.create ();
    placements = Hashtbl.create 1024;
    small_spans = 0;
    next_span_id = 0;
    cache_used_pages = 0;
  }

let vm t = t.vm

let fresh_id t =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  id

(* Spans with small object capacity are statistically short-lived (Fig. 16);
   in lifetime-aware mode they get their own hugepage set. *)
let filler_kind t ~capacity =
  if t.config.Config.lifetime_aware_filler
     && capacity < t.config.Config.lifetime_capacity_threshold
  then Hugepage_filler.Short_lived
  else Hugepage_filler.Long_lived

(* Allocate [pages] from the filler, feeding it fresh hugepages on demand.
   Returns (addr, mmaps incurred). *)
let filler_allocate t ~kind ~pages =
  match Hugepage_filler.allocate t.filler ~kind ~pages with
  | Some a -> (a, 0)
  | None ->
    let grant = Hugepage_cache.allocate t.cache ~hugepages:1 in
    Hugepage_filler.add_hugepage t.filler ~base:grant.Hugepage_cache.base ~kind
      ~donated:false ~t_used:0;
    (match Hugepage_filler.allocate t.filler ~kind ~pages with
    | Some a -> (a, if grant.Hugepage_cache.fresh then 1 else 0)
    | None -> assert false)

let new_small_span t ~size_class ~now =
  let info = Size_class.info size_class in
  let kind = filler_kind t ~capacity:info.Size_class.capacity in
  let base, mmaps = filler_allocate t ~kind ~pages:info.Size_class.pages in
  let span = Span.create_small ~id:(fresh_id t) ~base ~size_class ~birth_time:now in
  Page_map.register t.page_map span;
  t.small_spans <- t.small_spans + 1;
  (span, mmaps)

(* Large allocations "slightly exceeding" whole hugepages (Sec. 4.4, e.g.
   2.1 MiB) would waste most of a hugepage if rounded up; they go to the
   region when the rounding slack is at least half the allocation itself.
   (4.5 MiB with 1.5 MiB slack stays in the cache and donates its tail.) *)
let routes_to_region ~pages =
  let tail = pages mod pages_per_hugepage in
  tail > 0 && 2 * (pages_per_hugepage - tail) >= pages

let new_large_span t ~pages ~now =
  if pages <= 0 then invalid_arg "Pageheap.new_large_span: nonpositive pages";
  let id = fresh_id t in
  let base, placement, mmaps =
    if pages < pages_per_hugepage then begin
      (* One-object spans have capacity 1 < C: short-lived set when aware. *)
      let kind = filler_kind t ~capacity:1 in
      let base, mmaps = filler_allocate t ~kind ~pages in
      (base, In_filler, mmaps)
    end
    else begin
      if routes_to_region ~pages then
        (Hugepage_region.allocate t.region ~pages, In_region, 0)
      else begin
        let tail = pages mod pages_per_hugepage in
        let full = pages / pages_per_hugepage in
        let hugepages = full + (if tail > 0 then 1 else 0) in
        let grant = Hugepage_cache.allocate t.cache ~hugepages in
        let run_base = grant.Hugepage_cache.base in
        if tail > 0 then begin
          (* Donate the partial tail hugepage to the filler: its first
             [tail] pages belong to this span, the rest become allocatable
             slack (Sec. 4.4 "1.5 MB slack from a 4.5 MB allocation"). *)
          let tail_base = run_base + (full * hugepage_size) in
          Hugepage_filler.add_hugepage t.filler ~base:tail_base
            ~kind:Hugepage_filler.Long_lived ~donated:true ~t_used:tail
        end;
        t.cache_used_pages <- t.cache_used_pages + (full * pages_per_hugepage);
        ( run_base,
          In_cache { run_base; full_hugepages = full; tail_pages = tail },
          if grant.Hugepage_cache.fresh then 1 else 0 )
      end
    end
  in
  let span = Span.create_large ~id ~base ~pages ~birth_time:now in
  Page_map.register t.page_map span;
  Hashtbl.replace t.placements span.Span.id placement;
  (span, mmaps)

let free_via_filler t a ~pages =
  match Hugepage_filler.free t.filler a ~pages with
  | Hugepage_filler.Still_tracked -> ()
  | Hugepage_filler.Hugepage_empty base -> Hugepage_cache.free t.cache base ~hugepages:1

let free_span t span =
  if not (Span.is_idle span) then invalid_arg "Pageheap.free_span: span not idle";
  let placement =
    if not (Span.is_large span) then In_filler
    else
      match Hashtbl.find_opt t.placements span.Span.id with
      | Some p -> p
      | None -> invalid_arg "Pageheap.free_span: unknown span"
  in
  (* Raises, changing nothing, for a span this pageheap does not hold. *)
  Page_map.unregister t.page_map span;
  if Span.is_large span then Hashtbl.remove t.placements span.Span.id
  else t.small_spans <- t.small_spans - 1;
  match placement with
  | In_filler -> free_via_filler t span.Span.base ~pages:span.Span.pages
  | In_region -> Hugepage_region.free t.region span.Span.base ~pages:span.Span.pages
  | In_cache { run_base; full_hugepages; tail_pages } ->
    if tail_pages > 0 then begin
      let tail_base = run_base + (full_hugepages * hugepage_size) in
      free_via_filler t tail_base ~pages:tail_pages
    end;
    if full_hugepages > 0 then begin
      Hugepage_cache.free t.cache run_base ~hugepages:full_hugepages;
      t.cache_used_pages <- t.cache_used_pages - (full_hugepages * pages_per_hugepage)
    end

let span_of_addr t a = Page_map.lookup t.page_map a
let page_map t = t.page_map
let filler t = t.filler

(* Free bytes the release path could hand back to the OS right now without
   touching upper tiers: cached whole hugepages plus filler free pages. *)
let release_backlog_bytes t =
  Hugepage_cache.cached_bytes t.cache + Hugepage_filler.free_bytes t.filler

let release_memory t ~max_bytes =
  if max_bytes <= 0 then 0
  else begin
    let max_hugepages = max_bytes / hugepage_size in
    let released_hp = Hugepage_cache.release t.cache ~max_hugepages in
    let released = released_hp * hugepage_size in
    let remaining_pages = (max_bytes - released) / page_size in
    let subreleased =
      if remaining_pages > 0 then
        Hugepage_filler.subrelease t.filler t.vm ~max_pages:remaining_pages
      else 0
    in
    released + (subreleased * page_size)
  end

(* Whole cached hugepages are cheap to give back and cheap to get wrong
   (re-acquiring one costs a full mmap), so they release at a quarter of the
   configured rate; the filler's stranded free pages are the expensive kind
   of idle memory and subrelease at the full rate. *)
let background_release t =
  let cache_target =
    int_of_float
      (t.config.Config.pageheap_release_fraction /. 4.0
      *. float_of_int (Hugepage_cache.cached_bytes t.cache))
  in
  ignore (Hugepage_cache.release t.cache ~max_hugepages:(cache_target / hugepage_size));
  let subrelease_target =
    int_of_float
      (t.config.Config.pageheap_release_fraction
      *. float_of_int (Hugepage_filler.free_bytes t.filler))
  in
  if subrelease_target > 0 then
    ignore
      (Hugepage_filler.subrelease t.filler t.vm ~max_pages:(subrelease_target / page_size))

type component_stats = { in_use_bytes : int; fragmented_bytes : int }

let filler_stats t =
  {
    in_use_bytes = Hugepage_filler.used_bytes t.filler;
    fragmented_bytes = Hugepage_filler.free_bytes t.filler;
  }

let region_stats t =
  {
    in_use_bytes = Hugepage_region.used_bytes t.region;
    fragmented_bytes = Hugepage_region.free_bytes t.region;
  }

let cache_stats t =
  {
    in_use_bytes = t.cache_used_pages * page_size;
    fragmented_bytes = Hugepage_cache.cached_bytes t.cache;
  }

(* Component totals read directly (not via the [component_stats] records):
   these run every driver epoch and the three records would be the epoch
   loop's only allocations here. *)
let fragmented_bytes t =
  Hugepage_filler.free_bytes t.filler
  + Hugepage_region.free_bytes t.region
  + Hugepage_cache.cached_bytes t.cache

let in_use_bytes t =
  Hugepage_filler.used_bytes t.filler + Hugepage_region.used_bytes t.region
  + (cache_stats t).in_use_bytes

let hugepage_coverage t =
  let total = ref 0 and covered = ref 0 in
  let visit ~base ~used_pages =
    total := !total + used_pages;
    if Wsc_os.Vm.is_huge_backed t.vm base then covered := !covered + used_pages
  in
  Hugepage_filler.iter_hugepages t.filler visit;
  Hugepage_region.iter_hugepages t.region visit;
  Hashtbl.iter
    (fun _ placement ->
      match placement with
      | In_cache { run_base; full_hugepages; _ } ->
        for hp = 0 to full_hugepages - 1 do
          visit ~base:(run_base + (hp * hugepage_size)) ~used_pages:pages_per_hugepage
        done
      | In_filler | In_region -> ())
    t.placements;
  if !total = 0 then 1.0 else float_of_int !covered /. float_of_int !total

let spans_outstanding t = Hashtbl.length t.placements + t.small_spans
