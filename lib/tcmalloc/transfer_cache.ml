open Wsc_substrate

type addr = int

(* Parallel stacks: object address and the LLC domain that freed it. *)
type class_slot = {
  addrs : Int_stack.t;
  homes : Int_stack.t;
  capacity : int;
  mutable low_watermark : int;  (* fewest objects held since the last release tick *)
}
type shard = { slots : class_slot array; mutable cached_bytes : int }

type t = {
  config : Config.t;
  cfl : Central_free_list.t;
  central : shard;
  domain_shards : shard array;  (* empty when NUCA-awareness is off *)
}

let slot_capacity config cls =
  let size = Size_class.size cls in
  max
    (2 * Size_class.batch cls)
    (config.Config.transfer_cache_bytes_per_class / size)

let make_shard config =
  {
    slots =
      Array.init Size_class.count (fun cls ->
          {
            addrs = Int_stack.create ();
            homes = Int_stack.create ();
            capacity = slot_capacity config cls;
            low_watermark = 0;
          });
    cached_bytes = 0;
  }

let create ?(config = Config.baseline) ~topology cfl =
  let domain_shards =
    if config.Config.nuca_aware_transfer_cache then
      Array.init (Wsc_hw.Topology.num_domains topology) (fun _ -> make_shard config)
    else [||]
  in
  { config; cfl; central = make_shard config; domain_shards }

let shard_push shard cls a home =
  let slot = shard.slots.(cls) in
  Int_stack.push slot.addrs a;
  Int_stack.push slot.homes home;
  shard.cached_bytes <- shard.cached_bytes + Size_class.size cls

let shard_pop shard cls =
  let slot = shard.slots.(cls) in
  match Int_stack.pop_opt slot.addrs with
  | None -> None
  | Some a ->
    let home = Int_stack.pop slot.homes in
    shard.cached_bytes <- shard.cached_bytes - Size_class.size cls;
    let len = Int_stack.length slot.addrs in
    if len < slot.low_watermark then slot.low_watermark <- len;
    Some (a, home)

let shard_room shard cls =
  let slot = shard.slots.(cls) in
  slot.capacity - Int_stack.length slot.addrs

type remove_stats = {
  mutable rs_count : int;
  mutable rs_local : int;
  mutable rs_remote : int;
  mutable rs_from_cfl : int;
  mutable rs_mmaps : int;
}

let make_remove_stats () =
  { rs_count = 0; rs_local = 0; rs_remote = 0; rs_from_cfl = 0; rs_mmaps = 0 }

(* In-place [lo, hi) reversal, for the batch order below. *)
let rev_range buf lo hi =
  let i = ref lo and j = ref (hi - 1) in
  while !i < !j do
    let v = buf.(!i) in
    buf.(!i) <- buf.(!j);
    buf.(!j) <- v;
    incr i;
    decr j
  done

(* The batch lands in [buf.(0) .. stats.rs_count) as the central free
   list's objects in span pop order, then the shard pops with the last one
   popped first. *)
let remove_into t ~cls ~n ~domain ~now ~buf ~stats =
  let k = ref 0 in
  let need = ref n in
  let drain shard =
    let slot = shard.slots.(cls) in
    while !need > 0 && Int_stack.length slot.addrs > 0 do
      let a = Int_stack.pop slot.addrs in
      let home = Int_stack.pop slot.homes in
      shard.cached_bytes <- shard.cached_bytes - Size_class.size cls;
      let len = Int_stack.length slot.addrs in
      if len < slot.low_watermark then slot.low_watermark <- len;
      buf.(!k) <- a;
      incr k;
      decr need;
      if home = domain then stats.rs_local <- stats.rs_local + 1
      else stats.rs_remote <- stats.rs_remote + 1
    done
  in
  stats.rs_local <- 0;
  stats.rs_remote <- 0;
  if Array.length t.domain_shards > 0 then drain t.domain_shards.(domain);
  if !need > 0 then drain t.central;
  let shard_pops = !k in
  stats.rs_from_cfl <- !need;
  let mmaps = ref 0 in
  if !need > 0 then
    k :=
      !k
      + Central_free_list.remove_objects_into t.cfl ~cls ~n:!need ~now ~buf
          ~pos:shard_pops ~mmaps;
  stats.rs_mmaps <- !mmaps;
  stats.rs_count <- !k;
  (* The buffer holds [shard-pops ++ cfl-pops]: reverse the CFL segment,
     then the whole prefix. *)
  rev_range buf shard_pops !k;
  rev_range buf 0 !k

let store_one t ~cls ~domain a =
  let store shard =
    if shard_room shard cls > 0 then begin
      shard_push shard cls a domain;
      true
    end
    else false
  in
  if Array.length t.domain_shards > 0 then
    store t.domain_shards.(domain) || store t.central
  else store t.central

(* Store [buf.(lo) .. buf.(hi-1)], walked forward or (with [rev]) backward;
   objects with no room go to the central free list, in the reverse of the
   order they overflowed. *)
let insert_range t ~cls ~domain ~now ~buf ~lo ~hi ~rev =
  let overflow = ref [] in
  let n_overflow = ref 0 in
  for i = 0 to hi - lo - 1 do
    let a = buf.(if rev then hi - 1 - i else lo + i) in
    if not (store_one t ~cls ~domain a) then begin
      overflow := a :: !overflow;
      incr n_overflow
    end
  done;
  if !n_overflow > 0 then
    Central_free_list.return_objects t.cfl ~cls ~addrs:!overflow ~now;
  !n_overflow

let insert_from t ~cls ~domain ~now ~buf ~lo ~hi =
  insert_range t ~cls ~domain ~now ~buf ~lo ~hi ~rev:false

let insert_rev_from t ~cls ~domain ~now ~buf ~lo ~hi =
  insert_range t ~cls ~domain ~now ~buf ~lo ~hi ~rev:true

(* Objects a slot never dipped into since the previous tick are surplus:
   NUCA shards drain half of that low watermark to the central cache (so
   idle domains do not strand memory while busy shards keep their working
   sets local); the central cache drains its own surplus down to the
   central free list, letting idle-class objects rejoin their spans. *)
let release_tick t ~now =
  Array.iter
    (fun shard ->
      Array.iteri
        (fun cls (slot : class_slot) ->
          let drain = min (slot.low_watermark / 2) (Int_stack.length slot.addrs) in
          for _ = 1 to drain do
            match shard_pop shard cls with
            | None -> ()
            | Some (a, home) ->
              if shard_room t.central cls > 0 then shard_push t.central cls a home
              else Central_free_list.return_objects t.cfl ~cls ~addrs:[ a ] ~now
          done;
          slot.low_watermark <- Int_stack.length slot.addrs)
        shard.slots)
    t.domain_shards;
  Array.iteri
    (fun cls (slot : class_slot) ->
      let drain = min (slot.low_watermark / 2) (Int_stack.length slot.addrs) in
      let drained = ref [] in
      for _ = 1 to drain do
        match shard_pop t.central cls with
        | None -> ()
        | Some (a, _) -> drained := a :: !drained
      done;
      if !drained <> [] then Central_free_list.return_objects t.cfl ~cls ~addrs:!drained ~now;
      slot.low_watermark <- Int_stack.length slot.addrs)
    t.central.slots

(* Pressure-driven drain (second cascade stage): return every cached object
   — NUCA shards and central alike — to its span in the central free list,
   so drained spans can flow back to the pageheap for release. *)
let drain t ~now =
  let drained = ref 0 in
  let drain_shard shard =
    Array.iteri
      (fun cls (slot : class_slot) ->
        let addrs = ref [] in
        let continue = ref true in
        while !continue do
          match shard_pop shard cls with
          | None -> continue := false
          | Some (a, _) ->
            addrs := a :: !addrs;
            drained := !drained + Size_class.size cls
        done;
        if !addrs <> [] then Central_free_list.return_objects t.cfl ~cls ~addrs:!addrs ~now;
        slot.low_watermark <- 0)
      shard.slots
  in
  Array.iter drain_shard t.domain_shards;
  drain_shard t.central;
  !drained

let cached_bytes t =
  t.central.cached_bytes
  + Array.fold_left (fun acc shard -> acc + shard.cached_bytes) 0 t.domain_shards

let cached_objects t ~cls =
  Int_stack.length t.central.slots.(cls).addrs
  + Array.fold_left
      (fun acc shard -> acc + Int_stack.length shard.slots.(cls).addrs)
      0 t.domain_shards

let iter_addrs t f =
  let walk shard =
    Array.iteri
      (fun cls (slot : class_slot) -> Int_stack.iter slot.addrs (fun a -> f ~cls a))
      shard.slots
  in
  walk t.central;
  Array.iter walk t.domain_shards

let shard_count t = Array.length t.domain_shards
