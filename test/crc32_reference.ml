(* Reference CRC-32 for the differential test in test_trace_stream.ml:
   the bytewise table-driven loop that Wsc_trace.Crc32 replaced with
   slicing-by-8.  Both must give the same checksum for every range. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc bytes ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get bytes i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
