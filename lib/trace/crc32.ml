(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.

   Table 0 is the classic bytewise table.  Table k gives a byte's
   contribution to the checksum when k more bytes follow it in the same
   eight-byte step, so one step folds eight bytes with eight independent
   lookups.  A range's tail of fewer than eight bytes goes bytewise. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Indices below are masked to a byte, so every lookup is in bounds. *)
let[@inline] lookup k byte = Array.unsafe_get tables ((k lsl 8) lor (byte land 0xFF))

let update crc bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc32.update: out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last_step = pos + len - 8 in
  while !i <= last_step do
    let word = Bytes.get_int64_le bytes !i in
    let lo = !c lxor (Int64.to_int word land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical word 32) in
    c :=
      lookup 7 lo
      lxor lookup 6 (lo lsr 8)
      lxor lookup 5 (lo lsr 16)
      lxor lookup 4 (lo lsr 24)
      lxor lookup 3 hi
      lxor lookup 2 (hi lsr 8)
      lxor lookup 1 (hi lsr 16)
      lxor lookup 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := lookup 0 (!c lxor Char.code (Bytes.unsafe_get bytes j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)
