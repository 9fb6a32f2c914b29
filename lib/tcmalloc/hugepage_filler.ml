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
  mutable first_free : int;  (* lowest free page index; pages_per_hugepage if none *)
  kind : set_kind;
}

(* Occupancy bitmap over the free-count buckets 0..pages_per_hugepage: bit
   [f] is set iff bucket [f] holds a hugepage.  Words hold [word_bits] bits. *)
let word_bits = Sys.int_size
let bitmap_words = (pages_per_hugepage / word_bits) + 1

type t = {
  hugepages : (addr, hugepage) Hashtbl.t;
  (* buckets.(kind).(free_count) = hugepages with that many free pages, keyed
     by base.  A bucket's table is created at its first insert and then
     kept: its size, and so its iteration order, depends on its whole
     insert/remove history, and that order picks among equally dense
     hugepages. *)
  buckets : (addr, hugepage) Hashtbl.t option array array;
  occupied : int array array;  (* occupied.(kind) = bitmap over its buckets *)
  mutable used_pages : int;
  mutable free_pages : int;
  mutable released_pages : int;
}

let create () =
  {
    hugepages = Hashtbl.create 256;
    buckets = Array.init 2 (fun _ -> Array.make (pages_per_hugepage + 1) None);
    occupied = Array.init 2 (fun _ -> Array.make bitmap_words 0);
    used_pages = 0;
    free_pages = 0;
    released_pages = 0;
  }

(* Index of the highest / lowest set bit of a nonzero word. *)
let highest_bit w =
  let n = ref 0 and w = ref w in
  if !w lsr 32 <> 0 then begin n := 32; w := !w lsr 32 end;
  if !w lsr 16 <> 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w lsr 8 <> 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w lsr 4 <> 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w lsr 2 <> 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w lsr 1 <> 0 then !n + 1 else !n

let lowest_bit w = highest_bit (w land -w)

(* Lowest occupied bucket >= [f], or -1. *)
let next_occupied bits f =
  if f > pages_per_hugepage then -1
  else begin
    let i = ref (f / word_bits) in
    let w = ref (bits.(!i) land (-1 lsl (f mod word_bits))) in
    while !w = 0 && !i < bitmap_words - 1 do
      incr i;
      w := bits.(!i)
    done;
    if !w = 0 then -1 else (!i * word_bits) + lowest_bit !w
  end

(* Highest occupied bucket <= [f], or -1. *)
let prev_occupied bits f =
  if f < 0 then -1
  else begin
    let i = ref (f / word_bits) in
    let w = ref (bits.(!i) land (-1 lsr (word_bits - 1 - (f mod word_bits)))) in
    while !w = 0 && !i > 0 do
      decr i;
      w := bits.(!i)
    done;
    if !w = 0 then -1 else (!i * word_bits) + highest_bit !w
  end

let set_occupied bits f =
  bits.(f / word_bits) <- bits.(f / word_bits) lor (1 lsl (f mod word_bits))

let clear_occupied bits f =
  bits.(f / word_bits) <- bits.(f / word_bits) land lnot (1 lsl (f mod word_bits))

let bucket_remove t hp =
  let slot = kind_slot hp.kind in
  let bucket = Option.get t.buckets.(slot).(hp.free_count) in
  Hashtbl.remove bucket hp.base;
  if Hashtbl.length bucket = 0 then clear_occupied t.occupied.(slot) hp.free_count

(* The hugepage is never in its bucket here, so [Hashtbl.add] puts it where
   [Hashtbl.replace] would: at the head of its chain. *)
let bucket_insert t hp =
  let slot = kind_slot hp.kind and f = hp.free_count in
  let bucket =
    match t.buckets.(slot).(f) with
    | Some bucket -> bucket
    | None ->
      let bucket = Hashtbl.create 4 in
      t.buckets.(slot).(f) <- Some bucket;
      bucket
  in
  Hashtbl.add bucket hp.base hp;
  set_occupied t.occupied.(slot) f

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
  Bytes.fill page_state 0 t_used st_used;
  let hp =
    {
      base;
      page_state;
      free_count = pages_per_hugepage - t_used;
      used_count = t_used;
      released_count = 0;
      first_free = t_used;
      kind;
    }
  in
  Hashtbl.replace t.hugepages base hp;
  bucket_insert t hp;
  t.used_pages <- t.used_pages + t_used;
  t.free_pages <- t.free_pages + hp.free_count

(* First free page at or after [i], or pages_per_hugepage. *)
let next_free hp i =
  let i = ref i in
  while !i < pages_per_hugepage && Bytes.get hp.page_state !i <> st_free do
    incr i
  done;
  !i

(* First free run of length [n] in the hugepage, or -1.  No page below
   [first_free] is free, so the scan starts there.  Toplevel, so a probe
   allocates no closure. *)
let rec scan_run hp n i run_start run_len =
  if run_len = n then run_start
  else if i = pages_per_hugepage then -1
  else if Bytes.get hp.page_state i = st_free then
    scan_run hp n (i + 1) (if run_len = 0 then i else run_start) (run_len + 1)
  else scan_run hp n (i + 1) 0 0

let find_run hp n = scan_run hp n hp.first_free 0 0

let mark hp first n state delta_used delta_free =
  Bytes.fill hp.page_state first n state;
  hp.used_count <- hp.used_count + delta_used;
  hp.free_count <- hp.free_count + delta_free

exception Found of hugepage * int

let allocate t ~kind ~pages =
  if pages <= 0 || pages >= pages_per_hugepage then
    invalid_arg "Hugepage_filler.allocate: pages must be in (0, 256)";
  let slot = kind_slot kind in
  let bits = t.occupied.(slot) and buckets = t.buckets.(slot) in
  let probe _ hp =
    let run = find_run hp pages in
    if run >= 0 then raise (Found (hp, run))
  in
  (* Densest-first: visit the occupied buckets from the fewest free pages
     able to fit. *)
  match
    let f = ref (next_occupied bits pages) in
    while !f >= 0 do
      Hashtbl.iter probe (Option.get buckets.(!f));
      f := next_occupied bits (!f + 1)
    done
  with
  | () -> None
  | exception Found (hp, run) ->
    bucket_remove t hp;
    mark hp run pages st_used pages (-pages);
    if run = hp.first_free then hp.first_free <- next_free hp (run + pages);
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
  hp.first_free <- min hp.first_free first;
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
     memory per broken hugepage.  Both sets are walked together, one
     occupied free count at a time, Long_lived before Short_lived. *)
  let released = ref 0 in
  let prev f = max (prev_occupied t.occupied.(0) f) (prev_occupied t.occupied.(1) f) in
  let f = ref (prev (pages_per_hugepage - 1)) in
  while !released < max_pages && !f > 0 do
    for slot = 0 to 1 do
      match t.buckets.(slot).(!f) with
      | Some bucket when !released < max_pages ->
        let hps = Hashtbl.fold (fun _ hp acc -> hp :: acc) bucket [] in
        List.iter
          (fun hp ->
            if !released < max_pages then begin
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
                hp.first_free <- next_free hp hp.first_free;
                t.free_pages <- t.free_pages - want;
                t.released_pages <- t.released_pages + want;
                Wsc_os.Vm.subrelease vm hp.base ~pages:want;
                bucket_insert t hp;
                released := !released + want
              end
            end)
          hps
      | Some _ | None -> ()
    done;
    f := prev (!f - 1)
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
