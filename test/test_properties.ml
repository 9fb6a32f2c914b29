(* Deeper property tests for the middle tier: conservation and uniqueness
   laws for the transfer cache, the central free list, and the hugepage
   filler under adversarial random operation sequences, and differentials
   pinning the filler's and spans' indexes to the code they replaced. *)

open Wsc_tcmalloc
open Wsc_substrate

let qcheck t = QCheck_alcotest.to_alcotest t

let make_stack ?(config = Config.baseline) () =
  let vm = Wsc_os.Vm.create () in
  let ph = Pageheap.create ~config vm in
  let cfl = Central_free_list.create ~config ph in
  (vm, ph, cfl)

(* Objects handed out by the middle tier are unique: at no point may an
   address be outstanding twice, across any interleaving of transfer-cache
   inserts/removes in any domains. *)
let tc_uniqueness =
  QCheck.Test.make ~name:"transfer_cache_never_duplicates_objects" ~count:60
    QCheck.(pair small_int (list_of_size (Gen.int_range 10 120) (pair bool (int_range 0 15))))
    (fun (seed, ops) ->
      let config = Config.with_nuca_transfer_cache true Config.baseline in
      let _, _, cfl = make_stack ~config () in
      let tc = Transfer_cache.create ~config ~topology:Wsc_hw.Topology.default cfl in
      let rng = Rng.create seed in
      let held : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      let held_list = ref [] in
      let cls = 3 in
      let ok = ref true in
      List.iter
        (fun (is_remove, domain) ->
          if is_remove || !held_list = [] then begin
            let n = 1 + Rng.int rng 32 in
            let addrs, _ = Fixtures.tc_remove tc ~cls ~n ~domain ~now:0.0 in
            List.iter
              (fun a ->
                if Hashtbl.mem held a then ok := false
                else begin
                  Hashtbl.replace held a ();
                  held_list := a :: !held_list
                end)
              addrs
          end
          else begin
            (* Return a random prefix of what we hold. *)
            let k = 1 + Rng.int rng (List.length !held_list) in
            let rec split n acc = function
              | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
              | rest -> (acc, rest)
            in
            let back, keep = split k [] !held_list in
            held_list := keep;
            List.iter (Hashtbl.remove held) back;
            ignore (Fixtures.tc_insert tc ~cls ~addrs:back ~domain ~now:0.0)
          end)
        ops;
      !ok)

(* Central-free-list conservation: outstanding + free-in-spans = total span
   capacity, for every class, under random remove/return traffic. *)
let cfl_conservation =
  QCheck.Test.make ~name:"cfl_conserves_objects_across_classes" ~count:40
    QCheck.(pair small_int (list_of_size (Gen.int_range 10 80) (int_range 0 99)))
    (fun (seed, ops) ->
      let _, _, cfl = make_stack () in
      let rng = Rng.create seed in
      let classes = [ 0; 7; 40 ] in
      let held = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace held c []) classes;
      List.iter
        (fun op ->
          let cls = List.nth classes (op mod 3) in
          let current = Hashtbl.find held cls in
          if op mod 2 = 0 || current = [] then begin
            let addrs = Fixtures.cfl_remove cfl ~cls ~n:(1 + Rng.int rng 64) ~now:0.0 in
            Hashtbl.replace held cls (addrs @ current)
          end
          else begin
            let k = 1 + Rng.int rng (List.length current) in
            let rec split n acc = function
              | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
              | rest -> (acc, rest)
            in
            let back, keep = split k [] current in
            Hashtbl.replace held cls keep;
            Central_free_list.return_objects cfl ~cls ~addrs:back ~now:0.0
          end)
        ops;
      (* Conservation: for each class, held + cached-free = span capacity. *)
      List.for_all
        (fun cls ->
          let spans = Central_free_list.span_count cfl ~cls in
          let held_n = List.length (Hashtbl.find held cls) in
          (* All spans of a class share one capacity. *)
          let capacity = spans * Size_class.capacity cls in
          let free_bytes_all = Central_free_list.fragmented_bytes cfl in
          ignore free_bytes_all;
          held_n <= capacity)
        classes
      &&
      (* Returning everything releases every span. *)
      (List.iter
         (fun cls ->
           Central_free_list.return_objects cfl ~cls ~addrs:(Hashtbl.find held cls)
             ~now:1.0)
         classes;
       List.for_all (fun cls -> Central_free_list.span_count cfl ~cls = 0) classes))

(* Hugepage filler page accounting: used + free + released = 256 per tracked
   hugepage, under random allocate/free/subrelease sequences. *)
let filler_accounting =
  QCheck.Test.make ~name:"filler_page_accounting_invariant" ~count:60
    QCheck.(pair small_int (list_of_size (Gen.int_range 5 60) (int_range 1 200)))
    (fun (seed, ops) ->
      let vm = Wsc_os.Vm.create () in
      let filler = Hugepage_filler.create () in
      let rng = Rng.create seed in
      let live = ref [] in
      let invariant () =
        Hugepage_filler.used_pages filler
        + Hugepage_filler.free_pages filler
        + Hugepage_filler.released_pages filler
        = 256 * Hugepage_filler.tracked_hugepages filler
      in
      let ok = ref true in
      List.iter
        (fun pages ->
          (match Rng.int rng 4 with
          | 0 | 1 -> (
            (* allocate, feeding hugepages on demand *)
            match Hugepage_filler.allocate filler ~kind:Hugepage_filler.Long_lived ~pages with
            | Some a -> live := (a, pages) :: !live
            | None ->
              Hugepage_filler.add_hugepage filler ~base:(Wsc_os.Vm.mmap vm ~hugepages:1)
                ~kind:Hugepage_filler.Long_lived ~donated:false ~t_used:0;
              (match
                 Hugepage_filler.allocate filler ~kind:Hugepage_filler.Long_lived ~pages
               with
              | Some a -> live := (a, pages) :: !live
              | None -> ok := false))
          | 2 -> (
            match !live with
            | (a, n) :: rest ->
              live := rest;
              ignore (Hugepage_filler.free filler a ~pages:n)
            | [] -> ())
          | _ -> ignore (Hugepage_filler.subrelease filler vm ~max_pages:(Rng.int rng 64)));
          if not (invariant ()) then ok := false)
        ops;
      !ok)

(* The filler against its scanning reference (filler_reference.ml): the
   same random sequence of hugepage adds (fresh, drained-and-reused, donated
   tails with t_used > 0, batches that grow a bucket's table), placements
   of 1-255 pages in both sets, frees of live runs and subreleases must
   return the same values and leave the same page counts after every
   operation.  Placement among equally dense hugepages follows each
   bucket's table order, so this pins that order too. *)
let filler_matches_reference =
  let module R = Filler_reference in
  let module F = Hugepage_filler in
  let module Vm = Wsc_os.Vm in
  let sizes = [| 1; 1; 1; 2; 2; 3; 4; 6; 8; 16; 32; 64 |] in
  QCheck.Test.make ~name:"filler_matches_scanning_reference" ~count:150
    QCheck.(list_of_size (Gen.int_range 20 400) (pair (int_range 0 99) (int_range 0 9999)))
    (fun ops ->
      let vm = Vm.create () and ref_vm = Vm.create () in
      let f = F.create () and r = R.create () in
      let live = ref [] and spare = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let fk long = if long then F.Long_lived else F.Short_lived
      and rk long = if long then R.Long_lived else R.Short_lived in
      let add ~long ~t_used =
        let base =
          match !spare with
          | b :: rest ->
            spare := rest;
            b
          | [] ->
            let b = Vm.mmap vm ~hugepages:1 in
            expect (Vm.mmap ref_vm ~hugepages:1 = b);
            b
        in
        let donated = t_used > 0 in
        F.add_hugepage f ~base ~kind:(fk long) ~donated ~t_used;
        R.add_hugepage r ~base ~kind:(rk long) ~donated ~t_used;
        if donated then live := (base, t_used) :: !live
      in
      let allocate ~long ~pages =
        let a = F.allocate f ~kind:(fk long) ~pages in
        expect (a = R.allocate r ~kind:(rk long) ~pages);
        a
      in
      List.iter
        (fun (op, p) ->
          let long = p land 1 = 0 in
          (if op < 10 then
             add ~long ~t_used:(if p mod 4 = 0 then 1 + (p / 4 mod 255) else 0)
           else if op < 12 then
             for _ = 1 to 20 + (p mod 30) do
               add ~long ~t_used:0
             done
           else if op < 60 then begin
             let pages =
               if p / 2 mod 3 = 0 then 1 + (p / 6 mod 255)
               else sizes.(p / 6 mod Array.length sizes)
             in
             let placed =
               match allocate ~long ~pages with
               | Some _ as a -> a
               | None ->
                 add ~long ~t_used:0;
                 allocate ~long ~pages
             in
             match placed with
             | Some a -> live := (a, pages) :: !live
             | None -> ok := false
           end
           else if op < 90 then begin
             match !live with
             | [] -> ()
             | l ->
               let a, pages = List.nth l (p mod List.length l) in
               live := List.filter (fun (b, _) -> b <> a) l;
               let outcome = function
                 | F.Still_tracked -> None
                 | F.Hugepage_empty b -> Some b
               and ref_outcome = function
                 | R.Still_tracked -> None
                 | R.Hugepage_empty b -> Some b
               in
               let o = outcome (F.free f a ~pages) in
               expect (o = ref_outcome (R.free r a ~pages));
               Option.iter (fun b -> spare := b :: !spare) o
           end
           else
             expect
               (F.subrelease f vm ~max_pages:(p mod 300)
               = R.subrelease r ref_vm ~max_pages:(p mod 300)));
          expect (F.used_pages f = R.used_pages r);
          expect (F.free_pages f = R.free_pages r);
          expect (F.released_pages f = R.released_pages r);
          expect (F.tracked_hugepages f = R.tracked_hugepages r);
          expect (Vm.subrelease_calls vm = Vm.subrelease_calls ref_vm);
          expect (Vm.resident_bytes vm = Vm.resident_bytes ref_vm))
        ops;
      !ok)

(* The region against its scanning reference (region_reference.ml): the
   same random sequence of allocations (1 page, small runs, runs that
   straddle hugepages, whole hugepages plus a tail, the whole region, and
   oversize or empty requests), frees of live runs (some freeing their
   region's last run, so it is unmapped) and bad frees (an immediate double
   free, a run past its region's end, an address in no region) must return
   the same addresses, raise the same errors and leave the same region
   count, page counts and per-hugepage occupancy after every operation. *)
let region_matches_reference =
  let module R = Region_reference in
  let module H = Hugepage_region in
  let module Vm = Wsc_os.Vm in
  let pages_per_hugepage = Units.pages_per_hugepage in
  QCheck.Test.make ~name:"region_matches_scanning_reference" ~count:150
    QCheck.(
      pair (int_range 0 3)
        (list_of_size (Gen.int_range 20 400) (pair (int_range 0 99) (int_range 0 9999))))
    (fun (extra_hugepages, ops) ->
      let hugepages_per_region = 1 + extra_hugepages in
      let total = hugepages_per_region * pages_per_hugepage in
      let h = H.create (Vm.create ()) ~hugepages_per_region
      and r = R.create (Vm.create ()) ~hugepages_per_region in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let live = ref [] in
      let free a ~pages =
        let o = run (fun () -> H.free h a ~pages) in
        expect (o = run (fun () -> R.free r a ~pages));
        o
      in
      let occupancy iter =
        let l = ref [] in
        iter (fun ~base ~used_pages -> l := (base, used_pages) :: !l);
        !l
      in
      List.iter
        (fun (op, p) ->
          (if op < 55 then begin
             let q = p / 6 in
             let pages =
               match p mod 6 with
               | 0 -> 1
               | 1 -> 1 + (q mod 16)
               | 2 -> pages_per_hugepage - 40 + (q mod 80)
               | 3 -> (((q mod hugepages_per_region) + 1) * pages_per_hugepage) - 8 + (q mod 16)
               | 4 -> total - (q mod 3)
               | _ -> if q mod 4 = 0 then 0 else total + 1 + (q mod 300)
             in
             let a = run (fun () -> H.allocate h ~pages) in
             expect (a = run (fun () -> R.allocate r ~pages));
             match a with Ok a -> live := (a, pages) :: !live | Error _ -> ()
           end
           else if op < 90 then begin
             match !live with
             | [] -> ()
             | l ->
               let a, pages = List.nth l (p mod List.length l) in
               live := List.filter (fun (b, _) -> b <> a) l;
               expect (free a ~pages = Ok ());
               if p mod 5 = 0 then expect (free a ~pages <> Ok ())
           end
           else
             match !live with
             | (a, _) :: _ when p mod 2 = 0 -> expect (free a ~pages:(total + 1) <> Ok ())
             | _ -> expect (free (-1) ~pages:1 <> Ok ()));
          expect (H.regions h = R.regions r);
          expect (H.used_pages h = R.used_pages r);
          expect (H.free_pages h = R.free_pages r);
          expect (occupancy (H.iter_hugepages h) = occupancy (R.iter_hugepages r)))
        ops;
      !ok)

(* The jemalloc arena's extent arrays against the list code they replaced
   (extent_reference.ml), driven the way the model drives them: a first
   fit of 1 to 1,100 pages (slabs, large runs, runs past one hugepage), a
   fresh chunk mapped at a free address (so chunks arrive out of address
   order) and allocated from when nothing fits, and frees of live runs in
   any order, so runs coalesce on either side or both and chunks come
   back whole.  Every allocation must return the same run and chunk,
   every free must unmap the same chunks, and the extents must be equal
   after every operation. *)
let extents_match_reference =
  let module E = Wsc_backend.Extents in
  let module R = Extent_reference in
  let page_size = 4096 and pages_per_hugepage = 512 in
  QCheck.Test.make ~name:"extents_match_list_reference" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 300) (pair (int_range 0 99) (int_range 0 9999)))
    (fun ops ->
      let e = E.create ~page_size and r = R.create ~page_size in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let live = ref [] and used_slots = Hashtbl.create 16 in
      let alloc pages =
        let run = E.alloc e ~pages in
        let same (a : (int * E.chunk) option) (b : (int * R.chunk) option) =
          match (a, b) with
          | Some (x, c), Some (y, d) -> x = y && c == d
          | None, None -> true
          | _ -> false
        in
        expect (same run (R.alloc r ~pages));
        run
      in
      let listing iter =
        let l = ref [] in
        iter (fun ~base ~pages (c : E.chunk) -> l := (base, pages, c.E.c_base) :: !l);
        !l
      in
      List.iter
        (fun (op, p) ->
          (if op < 55 then begin
             let pages =
               match p mod 4 with
               | 0 -> 1 + (p mod 8)
               | 1 -> 1 + (p mod 120)
               | 2 -> 1 + (p mod 600)
               | _ -> 1 + (p mod 1100)
             in
             let run =
               match alloc pages with
               | Some _ as run -> run
               | None ->
                 let hugepages = max 1 ((pages + pages_per_hugepage - 1) / pages_per_hugepage) in
                 let slot = ref (p mod 64) in
                 while Hashtbl.mem used_slots !slot do
                   slot := (!slot + 1) mod 1024
                 done;
                 Hashtbl.replace used_slots !slot ();
                 let chunk =
                   {
                     E.c_base = !slot * 4 * pages_per_hugepage * page_size;
                     c_hugepages = hugepages;
                     c_pages = hugepages * pages_per_hugepage;
                   }
                 in
                 E.add_chunk e chunk;
                 R.add_chunk r chunk;
                 alloc pages
             in
             match run with
             | Some (base, chunk) -> live := (base, pages, chunk) :: !live
             | None -> expect false
           end
           else
             match !live with
             | [] -> ()
             | l ->
               let ((base, pages, chunk) as run) = List.nth l (p mod List.length l) in
               live := List.filter (fun x -> x != run) l;
               let whole = E.free e ~base ~pages chunk in
               let unmapped = R.free r ~base ~pages chunk in
               expect (unmapped = if whole then [ chunk ] else []);
               if whole then Hashtbl.remove used_slots (chunk.E.c_base / (4 * pages_per_hugepage * page_size)));
          expect (listing (E.iter e) = listing (R.iter r)))
        ops;
      !ok)

(* Lazy span carving against the eager slot stack it replaced: every slot
   index pushed up front, highest first, so pops run from the span base up
   and returned slots come back most recent first.  The model also keeps
   each slot's state (free, held, cached).  Addresses, slot states, counts,
   the wild/misaligned/double-free errors and the states the relabels find
   must match over random pop/push/mark runs in every size class. *)
let span_matches_eager_model =
  QCheck.Test.make ~name:"span_matches_eager_slot_stack" ~count:100
    QCheck.(
      pair (int_range 0 (Size_class.count - 1))
        (list_of_size (Gen.int_range 1 600) (pair (int_range 0 11) (int_range 0 99_999))))
    (fun (cls, ops) ->
      let base = 64 * Units.hugepage_size in
      let s = Span.create_small ~id:0 ~base ~size_class:cls ~birth_time:0.0 in
      let obj = s.Span.obj_size and cap = s.Span.capacity in
      let stack = ref (List.init cap Fun.id) and state = Array.make cap Span.Free in
      let outstanding = ref [] in
      let model_pop () =
        match !stack with
        | [] -> invalid_arg "Span.pop_object: exhausted"
        | slot :: rest ->
          stack := rest;
          state.(slot) <- Span.Cached;
          outstanding := slot :: !outstanding;
          base + (slot * obj)
      in
      let model_slot fn addr =
        if addr < base || addr >= base + Span.span_bytes s then
          invalid_arg (fn ^ ": address outside span");
        let off = addr - base in
        if off mod obj <> 0 then invalid_arg (fn ^ ": misaligned object");
        off / obj
      in
      let model_push addr =
        let slot = model_slot "Span.push_object" addr in
        if state.(slot) = Span.Free then invalid_arg "Span.push_object: double free";
        state.(slot) <- Span.Free;
        outstanding := List.filter (( <> ) slot) !outstanding;
        stack := slot :: !stack
      in
      let model_mark fn ~from ~into addr =
        let slot = model_slot fn addr in
        let found = state.(slot) in
        if found = from then state.(slot) <- into;
        found
      in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (op, p) ->
          let slot_addr = base + (p mod cap * obj) in
          let some_outstanding () =
            match !outstanding with
            | [] -> slot_addr
            | l -> base + (List.nth l (p mod List.length l) * obj)
          in
          (* Relabel mostly an outstanding object, sometimes any slot. *)
          let target () = if p land 3 = 0 then slot_addr else some_outstanding () in
          let push addr =
            expect (run (fun () -> Span.push_object s addr) = run (fun () -> model_push addr))
          in
          (match op with
          | 0 | 1 | 2 | 3 -> expect (run (fun () -> Span.pop_object s) = run model_pop)
          | 4 | 5 -> push (some_outstanding ())
          | 6 -> push slot_addr
          | 7 -> push (slot_addr + 1 + (p mod (obj - 1)))
          | 8 -> push (if p land 1 = 0 then base - obj else base + Span.span_bytes s + (p mod obj))
          | 9 ->
            let addr = if p land 1 = 0 then slot_addr else slot_addr + 1 + (p mod (obj - 1)) in
            expect
              (run (fun () -> Span.slot_state s addr)
              = run (fun () -> state.(model_slot "Span.slot_state" addr)))
          | 10 ->
            let addr = target () in
            expect
              (run (fun () -> Span.mark_held s addr)
              = run (fun () ->
                    model_mark "Span.mark_held" ~from:Span.Cached ~into:Span.Held addr))
          | _ ->
            let addr = target () in
            expect
              (run (fun () -> Span.mark_cached s addr)
              = run (fun () ->
                    model_mark "Span.mark_cached" ~from:Span.Held ~into:Span.Cached addr)));
          let n = List.length !outstanding in
          let count st = Array.fold_left (fun k x -> if x = st then k + 1 else k) 0 state in
          expect (s.Span.outstanding = n);
          expect (Span.free_objects s = cap - n);
          expect (Span.is_exhausted s = (n = cap));
          expect (Span.is_idle s = (n = 0));
          if p mod 16 = 0 then
            expect
              (Span.count_slots s Span.Held = count Span.Held
              && Span.count_slots s Span.Cached = count Span.Cached
              && Span.count_slots s Span.Free = count Span.Free))
        ops;
      !ok)

(* Whole-stack address-space safety: concurrent classes never hand out
   overlapping byte ranges (spot-checked via sorted interval scan). *)
let no_overlapping_objects =
  QCheck.Test.make ~name:"live_objects_never_overlap" ~count:15
    QCheck.(int_range 1 500)
    (fun seed ->
      let clock = Clock.create () in
      let malloc =
        Malloc.create ~config:Config.all_optimizations
          ~topology:Wsc_hw.Topology.default ~clock ()
      in
      let rng = Rng.create seed in
      let live = ref [] in
      for _ = 1 to 2_000 do
        if Rng.bool rng || !live = [] then begin
          let size = 1 + Rng.int rng 100_000 in
          let a = Malloc.malloc malloc ~cpu:(Rng.int rng 16) ~size in
          live := (a, size) :: !live
        end
        else begin
          match !live with
          | (a, size) :: rest ->
            Malloc.free malloc ~cpu:(Rng.int rng 16) a ~size;
            live := rest
          | [] -> ()
        end
      done;
      let sorted = List.sort compare !live in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

let suite =
  [
    ( "middle_tier_properties",
      [
        qcheck tc_uniqueness;
        qcheck cfl_conservation;
        qcheck filler_accounting;
        qcheck filler_matches_reference;
        qcheck region_matches_reference;
        qcheck extents_match_reference;
        qcheck span_matches_eager_model;
        qcheck no_overlapping_objects;
      ] );
  ]
