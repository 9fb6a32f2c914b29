open Wsc_substrate

type addr = int

type cpu_cache = {
  stacks : Int_stack.t array;
  low_watermark : int array;  (* fewest objects held since the last decay tick *)
  mutable used_bytes : int;
  mutable capacity_bytes : int;
  mutable interval_misses : int;
  mutable total_misses : int;
}

type t = {
  config : Config.t;
  mutable caches : cpu_cache option array;
  mutable next_victim : int;  (* round-robin rotation for capacity stealing *)
  mutable evict_buf : addr array;
      (* one stack's evicted objects, handed to [evict]; allocated at the
         first eviction *)
}

let min_capacity_bytes = 128 * 1024

(* Per-(vCPU, class) object cap: the hard per-class limit, further bounded
   so no single class can monopolize more than half the byte budget. *)
let class_cap config cls =
  let size = Size_class.size cls in
  let byte_bound =
    Int.max (Size_class.batch cls) (config.Config.per_cpu_cache_bytes / 2 / size)
  in
  Int.min config.Config.per_cpu_class_cap_objects byte_bound

let create ?(config = Config.baseline) () =
  { config; caches = Array.make 8 None; next_victim = 0; evict_buf = [||] }

let cache_of t vcpu =
  let n = Array.length t.caches in
  if vcpu >= n then begin
    let bigger = Array.make (Int.max (vcpu + 1) (2 * n)) None in
    Array.blit t.caches 0 bigger 0 n;
    t.caches <- bigger
  end;
  match t.caches.(vcpu) with
  | Some c -> c
  | None ->
    let c =
      {
        stacks = Array.init Size_class.count (fun _ -> Int_stack.create ());
        low_watermark = Array.make Size_class.count 0;
        used_bytes = 0;
        capacity_bytes = t.config.Config.per_cpu_cache_bytes;
        interval_misses = 0;
        total_misses = 0;
      }
    in
    t.caches.(vcpu) <- Some c;
    c

let populate t ~vcpu = ignore (cache_of t vcpu)

let miss c =
  c.interval_misses <- c.interval_misses + 1;
  c.total_misses <- c.total_misses + 1

(* Every per-CPU operation is one direct step that allocates nothing once
   the cache is populated.  Under rseq the caller runs it only after the
   injector lets the operation commit (Wsc_os.Rseq.run_op), so an aborted
   operation never touches the stacks. *)

let[@inline] lower_watermark c ~cls =
  let len = Int_stack.length c.stacks.(cls) in
  if len < c.low_watermark.(cls) then c.low_watermark.(cls) <- len

let[@inline] has_room t c ~cls =
  c.used_bytes + Size_class.size cls <= c.capacity_bytes
  && Int_stack.length c.stacks.(cls) < class_cap t.config cls

let alloc t ~vcpu ~cls =
  let c = cache_of t vcpu in
  let s = c.stacks.(cls) in
  if Int_stack.is_empty s then begin
    miss c;
    -1
  end
  else begin
    let a = Int_stack.pop s in
    c.used_bytes <- c.used_bytes - Size_class.size cls;
    lower_watermark c ~cls;
    a
  end

let dealloc t ~vcpu ~cls a =
  let c = cache_of t vcpu in
  if has_room t c ~cls then begin
    Int_stack.push c.stacks.(cls) a;
    c.used_bytes <- c.used_bytes + Size_class.size cls;
    true
  end
  else begin
    miss c;
    false
  end

(* Acceptance is a prefix bounded by both the byte budget and the
   per-class object cap: once one object is refused, so is every later
   one. *)
let fill_from t ~vcpu ~cls ~buf ~lo ~hi =
  let c = cache_of t vcpu in
  let size = Size_class.size cls in
  let stack = c.stacks.(cls) in
  let room_bytes = Int.max 0 ((c.capacity_bytes - c.used_bytes) / size) in
  let room_objects = Int.max 0 (class_cap t.config cls - Int_stack.length stack) in
  let k = Int.min (Int.min room_bytes room_objects) (hi - lo) in
  for i = lo to lo + k - 1 do
    Int_stack.push stack buf.(i)
  done;
  c.used_bytes <- c.used_bytes + (k * size);
  k

let flush_batch_into t ~vcpu ~cls ~n ~buf ~pos =
  let c = cache_of t vcpu in
  let m = Int_stack.pop_into c.stacks.(cls) buf ~pos ~n in
  c.used_bytes <- c.used_bytes - (m * Size_class.size cls);
  lower_watermark c ~cls;
  m

type evict = vcpu:int -> cls:int -> buf:addr array -> n:int -> unit

(* Pop up to [n] objects of one stack into the eviction buffer, most recent
   first, and hand them to [evict]; returns the bytes evicted. *)
let evict_from t c ~vcpu ~cls ~n ~(evict : evict) =
  if Array.length t.evict_buf = 0 then
    (* [class_cap] bounds every class stack by the hard per-class limit. *)
    t.evict_buf <- Array.make t.config.Config.per_cpu_class_cap_objects 0;
  let m = Int_stack.pop_into c.stacks.(cls) t.evict_buf ~pos:0 ~n in
  let bytes = m * Size_class.size cls in
  c.used_bytes <- c.used_bytes - bytes;
  evict ~vcpu ~cls ~buf:t.evict_buf ~n:m;
  bytes

(* Shrink a cache to its (reduced) budget by evicting whole stacks of the
   largest classes first — the paper prioritizes shrinking larger size
   classes since small objects dominate the allocation mix. *)
let enforce_budget t c ~vcpu ~evict =
  let cls = ref (Size_class.count - 1) in
  while c.used_bytes > c.capacity_bytes && !cls >= 0 do
    let stack = c.stacks.(!cls) in
    if not (Int_stack.is_empty stack) then begin
      let size = Size_class.size !cls in
      let n = (c.used_bytes - c.capacity_bytes + size - 1) / size in
      ignore (evict_from t c ~vcpu ~cls:!cls ~n ~evict)
    end;
    decr cls
  done

let decay_tick t ~evict =
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun cls stack ->
            (* Objects below the class's low watermark went untouched the
               whole interval: surplus capacity to give back (TCMalloc's
               demand-based per-class capacity shrinking). *)
            let n = Int.min (c.low_watermark.(cls) / 2) (Int_stack.length stack) in
            if n > 0 then ignore (evict_from t c ~vcpu ~cls ~n ~evict);
            c.low_watermark.(cls) <- Int_stack.length stack)
          c.stacks)
    t.caches

(* Empty every class stack of one cache into [evict]; returns the bytes
   drained.  The budget is untouched. *)
let drain_cache t c ~vcpu ~evict =
  let drained = ref 0 in
  Array.iteri
    (fun cls stack ->
      let n = Int_stack.length stack in
      if n > 0 then drained := !drained + evict_from t c ~vcpu ~cls ~n ~evict;
      c.low_watermark.(cls) <- 0)
    c.stacks;
  !drained

(* Pressure-driven shrink: empty every (vCPU, class) stack, handing the
   objects to [evict] for routing down the hierarchy.  Capacity budgets are
   untouched — demand refills the caches once pressure passes. *)
let drain t ~evict =
  let drained = ref 0 in
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c -> drained := !drained + drain_cache t c ~vcpu ~evict)
    t.caches;
  !drained

(* Stranded-cache reclaim: drain every class stack of one (retired) vCPU's
   cache, handing the objects to [evict].  The background reclaim pass and
   churn-time flushes use this; the cache stays populated (budget intact)
   so a reused id finds a warm, correctly sized cache. *)
let slot t vcpu = if vcpu < 0 || vcpu >= Array.length t.caches then None else t.caches.(vcpu)

let drain_vcpu t ~vcpu ~evict =
  match slot t vcpu with None -> 0 | Some c -> drain_cache t c ~vcpu ~evict

let populated_list t =
  let out = ref [] in
  Array.iteri
    (fun vcpu slot -> match slot with Some c -> out := (vcpu, c) :: !out | None -> ())
    t.caches;
  List.rev !out

let resize t ~evict =
  if t.config.Config.dynamic_per_cpu_caches then begin
    let caches = populated_list t in
    let by_misses =
      List.sort (fun (_, a) (_, b) -> compare b.interval_misses a.interval_misses) caches
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | (vcpu, c) :: rest ->
        if c.interval_misses > 0 then (vcpu, c) :: take (n - 1) rest else []
    in
    let growers = take t.config.Config.resize_grow_candidates by_misses in
    if growers <> [] then begin
      let grower_ids = List.map fst growers in
      let victims =
        List.filter
          (fun (vcpu, c) ->
            (not (List.mem vcpu grower_ids))
            && c.capacity_bytes - t.config.Config.resize_step_bytes >= min_capacity_bytes)
          caches
      in
      if victims <> [] then begin
        let victims = Array.of_list victims in
        let n_victims = Array.length victims in
        List.iter
          (fun (_, grower) ->
            let vcpu_v, victim = victims.(t.next_victim mod n_victims) in
            t.next_victim <- t.next_victim + 1;
            if victim.capacity_bytes - t.config.Config.resize_step_bytes >= min_capacity_bytes
            then begin
              victim.capacity_bytes <-
                victim.capacity_bytes - t.config.Config.resize_step_bytes;
              grower.capacity_bytes <-
                grower.capacity_bytes + t.config.Config.resize_step_bytes;
              enforce_budget t victim ~vcpu:vcpu_v ~evict
            end)
          growers
      end
    end;
    List.iter (fun (_, c) -> c.interval_misses <- 0) caches
  end

let used_bytes t ~vcpu = match slot t vcpu with Some c -> c.used_bytes | None -> 0
let capacity_bytes t ~vcpu = match slot t vcpu with Some c -> c.capacity_bytes | None -> 0

let cached_bytes t =
  Array.fold_left
    (fun acc slot -> match slot with Some c -> acc + c.used_bytes | None -> acc)
    0 t.caches

let populated_vcpus t = List.map fst (populated_list t)

let iter_addrs t f =
  Array.iteri
    (fun vcpu slot ->
      match slot with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun cls stack -> Int_stack.iter stack (fun a -> f ~vcpu ~cls a))
          c.stacks)
    t.caches

let misses_per_vcpu t =
  Array.map (function Some c -> c.total_misses | None -> 0) t.caches
