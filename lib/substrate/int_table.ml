(* Open-addressing int -> int hash table over unboxed Bigarray storage.

   The trace pipeline's tables (the recorder's addr -> id map, the codec's
   live index, replay's id -> handle map) are int-keyed, int-valued, and queried on
   every event.  [Hashtbl] costs a bucket-list allocation per [replace]
   and an option per [find_opt]; this table allocates nothing on any
   operation except a (rare) doubling.

   Keys live in a [Bigarray.Array1] of native ints, so the GC never scans
   the table and membership probes touch exactly one cache line in the
   common case.  Two key values are reserved, so keys must be greater than
   [min_int + 1] (addresses and ids in the simulator are non-negative):
   [min_int] marks an empty slot, and [min_int + 1] stays reserved so the
   trace codec's contract does not depend on how deletion works.
   Collisions use linear probing with backward-shift deletion: a removal
   moves later entries of its probe run back into the hole, so the table
   holds no tombstones and never rehashes at the same capacity.  The load
   factor is kept at or below 1/2. *)

open Bigarray

type slots = (int, int_elt, c_layout) Array1.t

type t = {
  mutable keys : slots;
  mutable vals : slots;
  mutable mask : int;      (* capacity - 1; capacity is a power of two *)
  mutable shift : int;     (* 63 - log2 capacity, for multiplicative hashing *)
  mutable live : int;      (* occupied slots *)
}

let empty_key = min_int
let reserved_key = min_int + 1

let fib = 0x2545F4914F6CDD1D

let[@inline] slot_of_key t key = (key * fib) lsr t.shift

let make_slots cap =
  let a : slots = Array1.create int c_layout cap in
  Array1.fill a empty_key;
  a

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

let log2_exact n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ?(initial_capacity = 16) () =
  let cap = ceil_pow2 (max 8 initial_capacity) 8 in
  {
    keys = make_slots cap;
    vals = Array1.create int c_layout cap;
    mask = cap - 1;
    shift = 63 - log2_exact cap;
    live = 0;
  }

let length t = t.live

(* Find the slot holding [key], or -1.  A reserved key is never held: the
   empty-slot marker would otherwise match the first empty slot probed. *)
let[@inline] probe_find t key =
  if key <= reserved_key then -1
  else begin
    let keys = t.keys in
    let mask = t.mask in
    let i = ref (slot_of_key t key) in
    let found = ref (-1) in
    let continue = ref true in
    while !continue do
      let k = Array1.unsafe_get keys !i in
      if k = key then begin
        found := !i;
        continue := false
      end
      else if k = empty_key then continue := false
      else i := (!i + 1) land mask
    done;
    !found
  end

let mem t key = probe_find t key >= 0

let find t key ~default =
  let s = probe_find t key in
  if s >= 0 then Array1.unsafe_get t.vals s else default

let rec resize t new_cap =
  let old_keys = t.keys and old_vals = t.vals in
  let old_cap = t.mask + 1 in
  t.keys <- make_slots new_cap;
  t.vals <- Array1.create int c_layout new_cap;
  t.mask <- new_cap - 1;
  t.shift <- 63 - log2_exact new_cap;
  t.live <- 0;
  for i = 0 to old_cap - 1 do
    let k = Array1.unsafe_get old_keys i in
    if k <> empty_key then set t k (Array1.unsafe_get old_vals i)
  done

and set t key value =
  if key = empty_key || key = reserved_key then
    invalid_arg "Int_table.set: key out of range";
  if 2 * (t.live + 1) > t.mask + 1 then resize t (2 * (t.mask + 1));
  let keys = t.keys in
  let mask = t.mask in
  let i = ref (slot_of_key t key) in
  while
    let k = Array1.unsafe_get keys !i in
    k <> key && k <> empty_key
  do
    i := (!i + 1) land mask
  done;
  if Array1.unsafe_get keys !i = empty_key then begin
    Array1.unsafe_set keys !i key;
    t.live <- t.live + 1
  end;
  Array1.unsafe_set t.vals !i value

(* Backward-shift deletion: walk the probe run after the hole, and move
   back every entry whose home slot does not lie cyclically in
   (hole, entry]; such an entry stays reachable from its home only through
   the hole.  The run ends at the first empty slot, which the last hole
   becomes. *)
let remove t key =
  let s = probe_find t key in
  if s >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = t.mask in
    let hole = ref s in
    let j = ref ((s + 1) land mask) in
    while Array1.unsafe_get keys !j <> empty_key do
      let k = Array1.unsafe_get keys !j in
      let home = slot_of_key t k in
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        Array1.unsafe_set keys !hole k;
        Array1.unsafe_set vals !hole (Array1.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array1.unsafe_set keys !hole empty_key;
    t.live <- t.live - 1
  end
