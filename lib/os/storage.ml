(* Storage-fault IO shim: durable-artifact writers (trace writer, snapshot
   saver) push their bytes through this layer so the deterministic damage
   schedules in {!Fault.storage} apply at the exact byte offsets a real
   fault would hit.  With [Fault.no_storage_faults] the shim is a thin
   wrapper over [out_channel] and produces bit-identical files. *)

type t = {
  faults : Fault.storage;
  ops : (string, int) Hashtbl.t;  (* per-path IO op counter *)
  mutable flips : int;
  mutable torn_writes : int;
  mutable truncations : int;
  mutable truncated_bytes : int;
  mutable rename_failures : int;
}

let create ?(faults = Fault.no_storage_faults) () =
  Fault.validate_storage faults;
  {
    faults;
    ops = Hashtbl.create 7;
    flips = 0;
    torn_writes = 0;
    truncations = 0;
    truncated_bytes = 0;
    rename_failures = 0;
  }

let faults t = t.faults
let active t = Fault.storage_active t.faults
let flips t = t.flips
let torn_writes t = t.torn_writes
let truncations t = t.truncations

let next_op t path =
  let n = try Hashtbl.find t.ops path with Not_found -> 0 in
  Hashtbl.replace t.ops path (n + 1);
  n

type oc = {
  owner : t;
  path : string;
  ch : out_channel;
  mutable written : int;
  mutable dead : bool;  (* a torn write happened: the tail of the file is
                           gone, so every later write is silently dropped *)
}

let open_out t path =
  { owner = t; path; ch = Stdlib.open_out_bin path; written = 0; dead = false }

let output oc buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Storage.output";
  if (not oc.dead) && len > 0 then begin
    let t = oc.owner in
    let damage =
      if active t then
        Fault.write_damage t.faults ~path:oc.path ~op_index:(next_op t oc.path)
          ~len
      else Fault.no_write_damage
    in
    match damage with
    | { Fault.torn_at = None; flips = [] } ->
        Stdlib.output oc.ch buf pos len;
        oc.written <- oc.written + len
    | { Fault.torn_at; flips } ->
        let cut = match torn_at with Some k -> k | None -> len in
        if torn_at <> None then begin
          oc.dead <- true;
          t.torn_writes <- t.torn_writes + 1
        end;
        if cut > 0 then begin
          let copy = Bytes.sub buf pos cut in
          List.iter
            (fun (off, bit) ->
              if off < cut then begin
                Bytes.set copy off
                  (Char.chr (Char.code (Bytes.get copy off) lxor (1 lsl bit)));
                t.flips <- t.flips + 1
              end)
            flips;
          Stdlib.output oc.ch copy 0 cut;
          oc.written <- oc.written + cut
        end
  end

let output_string oc s = output oc (Bytes.unsafe_of_string s) 0 (String.length s)

let fsync oc =
  Stdlib.flush oc.ch;
  try Unix.fsync (Unix.descr_of_out_channel oc.ch) with Unix.Unix_error _ -> ()

let close oc =
  let t = oc.owner in
  Stdlib.close_out oc.ch;
  if (not oc.dead) && active t then begin
    let loss =
      Fault.truncate_loss t.faults ~path:oc.path ~op_index:(next_op t oc.path)
        ~len:oc.written
    in
    if loss > 0 then begin
      let keep = max 0 (oc.written - loss) in
      Unix.truncate oc.path keep;
      t.truncations <- t.truncations + 1;
      t.truncated_bytes <- t.truncated_bytes + (oc.written - keep)
    end
  end

let rename t ~src ~dst =
  if active t && Fault.rename_fails t.faults ~path:dst ~op_index:(next_op t dst)
  then begin
    t.rename_failures <- t.rename_failures + 1;
    false
  end
  else begin
    Sys.rename src dst;
    true
  end

let write_file t path data =
  let oc = open_out t path in
  output oc data 0 (Bytes.length data);
  close oc

(* Fsync the directory itself so the rename that published an artifact
   survives a power cut.  Best-effort: some filesystems refuse directory
   fsync, and losing it only re-opens the crash window the rename closed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
