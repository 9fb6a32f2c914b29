open Wsc_substrate
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Event = Wsc_workload.Trace

type result = {
  allocations : int;
  frees : int;
  retires : int;
  peak_rss_bytes : int;
  final_stats : Malloc.heap_stats;
  malloc_ns : float;
}

(* ------------------------------------------------------------------ *)
(* The compiled stream.                                                *)
(*                                                                     *)
(* Every replay compiles its event source once, a window at a time,   *)
(* into a private byte stream, and every arm runs that stream: no arm  *)
(* decodes the trace or keeps an id table.  A free names a dense       *)
(* handle instead of an object id.  The compiler and each arm hand out *)
(* handles the same way (the most recently freed one first, else the   *)
(* next fresh one), so an allocation carries no handle and an arm      *)
(* keeps addresses and sizes in two int arrays indexed by handle.      *)
(*                                                                     *)
(* Every event starts with a head byte, tag (low 2 bits) | field (6):  *)
(*   tag 0  Alloc; field = cpu code; then uvarint size.                *)
(*   tag 1  Free; field = cpu code; then uvarint handle.               *)
(*   tag 2  Advance; field 0 = the previous step again; field 1 = a   *)
(*          new step, its 8-byte LE IEEE double follows.               *)
(*   tag 3  Retire; field = flush (0 or 1); then uvarint cpu.          *)
(* cpu code: 0..62 literal; 63 = escape, uvarint cpu follows.  Cpus    *)
(* are folded onto the topology ([cpu mod num_cpus]) as they are       *)
(* compiled.  The first Advance of every window writes its step.       *)
(* ------------------------------------------------------------------ *)

(* A window is flushed to the arms once it holds this many bytes: a
   60 s spanner recording (704K events) compiles to 1.8 MB, one window. *)
let window_bytes = 1 lsl 22

(* Head byte, cpu escape and a 63-bit uvarint. *)
let max_event_bytes = 32
let cpu_escape = 63

type handles = { freed : Int_stack.t; mutable next : int }

let handles () = { freed = Int_stack.create ~initial_capacity:1024 (); next = 0 }

let take h =
  if Int_stack.is_empty h.freed then begin
    let n = h.next in
    h.next <- n + 1;
    n
  end
  else Int_stack.pop h.freed

let give h n = Int_stack.push h.freed n

type compiler = {
  num_cpus : int;
  handle_of_id : Int_table.t;
  ids : handles;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable last_step : int;  (* offset of this window's last step, or -1 *)
}

let compiler ~topology =
  {
    num_cpus = Wsc_hw.Topology.num_cpus topology;
    handle_of_id = Int_table.create ~initial_capacity:4096 ();
    ids = handles ();
    buf = Bytes.create 65536;
    len = 0;
    last_step = -1;
  }

let put_byte c v =
  Bytes.unsafe_set c.buf c.len (Char.unsafe_chr v);
  c.len <- c.len + 1

(* LEB128; a negative int takes nine bytes and reads back exactly. *)
let put_uvarint c v =
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    put_byte c (0x80 lor (!v land 0x7f));
    v := !v lsr 7
  done;
  put_byte c !v

let put_head c ~tag ~cpu =
  if cpu >= 0 && cpu < cpu_escape then put_byte c ((cpu lsl 2) lor tag)
  else begin
    put_byte c ((cpu_escape lsl 2) lor tag);
    put_uvarint c cpu
  end

(* Compile one event.  Every check runs before a byte is written, so an
   event that raises leaves the window holding exactly the events before
   it. *)
let add c (ev : Event.event) =
  if c.len + max_event_bytes > Bytes.length c.buf then begin
    let grown = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 grown 0 c.len;
    c.buf <- grown
  end;
  match ev with
  | Event.Alloc { id; size; cpu } ->
    Int_table.set c.handle_of_id id (take c.ids);
    put_head c ~tag:0 ~cpu:(cpu mod c.num_cpus);
    put_uvarint c size
  | Event.Free { id; cpu } ->
    let h = if Codec.reserved_id id then -1 else Int_table.find c.handle_of_id id ~default:(-1) in
    if h < 0 then invalid_arg "Wsc_trace.Replay: free of unknown id";
    Int_table.remove c.handle_of_id id;
    give c.ids h;
    put_head c ~tag:1 ~cpu:(cpu mod c.num_cpus);
    put_uvarint c h
  | Event.Advance { dt_ns } ->
    let bits = Int64.bits_of_float dt_ns in
    if c.last_step >= 0 && Int64.equal bits (Bytes.get_int64_le c.buf c.last_step) then
      put_byte c 2
    else begin
      put_byte c ((1 lsl 2) lor 2);
      c.last_step <- c.len;
      Bytes.set_int64_le c.buf c.len bits;
      c.len <- c.len + 8
    end
  | Event.Retire { cpu; flush } ->
    put_byte c (((if flush then 1 else 0) lsl 2) lor 3);
    put_uvarint c (cpu mod c.num_cpus)

(* Start the next window in the same buffer. *)
let reset c =
  c.len <- 0;
  c.last_step <- -1

(* ------------------------------------------------------------------ *)
(* One arm: a fresh allocator fed from the compiled stream.            *)
(* ------------------------------------------------------------------ *)

type arm = {
  clock : Clock.t;
  backend : Backend.t;
  slots : handles;
  mutable addrs : int array;  (* by handle *)
  mutable sizes : int array;  (* by handle *)
  mutable peak : int;
  mutable allocations : int;
  mutable frees : int;
  mutable retires : int;
}

let arm ~topology config =
  let clock = Clock.create () in
  {
    clock;
    backend = Backend.create ~config ~topology ~clock ();
    slots = handles ();
    addrs = Array.make 4096 0;
    sizes = Array.make 4096 0;
    peak = 0;
    allocations = 0;
    frees = 0;
    retires = 0;
  }

(* The stream was written by [add], so reads need no bounds checks. *)
let get_uvarint b pos =
  let byte = Char.code (Bytes.unsafe_get b !pos) in
  incr pos;
  if byte < 0x80 then byte
  else begin
    let v = ref (byte land 0x7f) and shift = ref 7 and fin = ref false in
    while not !fin do
      let byte = Char.code (Bytes.unsafe_get b !pos) in
      incr pos;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then fin := true
    done;
    !v
  end

let grow a =
  let n = Array.length a.addrs in
  let addrs = Array.make (2 * n) 0 and sizes = Array.make (2 * n) 0 in
  Array.blit a.addrs 0 addrs 0 n;
  Array.blit a.sizes 0 sizes 0 n;
  a.addrs <- addrs;
  a.sizes <- sizes

(* Run the compiler's current window; the compiler waits meanwhile. *)
let run_window a c =
  let b = c.buf and backend = a.backend in
  let pos = ref 0 and step = ref 0.0 in
  while !pos < c.len do
    let head = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    let field = head lsr 2 in
    match head land 3 with
    | 0 ->
      let cpu = if field = cpu_escape then get_uvarint b pos else field in
      let size = get_uvarint b pos in
      let addr = Backend.malloc backend ~cpu ~size in
      let h = take a.slots in
      if h = Array.length a.addrs then grow a;
      a.addrs.(h) <- addr;
      a.sizes.(h) <- size;
      a.allocations <- a.allocations + 1
    | 1 ->
      let cpu = if field = cpu_escape then get_uvarint b pos else field in
      let h = get_uvarint b pos in
      give a.slots h;
      Backend.free backend ~cpu a.addrs.(h) ~size:a.sizes.(h);
      a.frees <- a.frees + 1
    | 2 ->
      if field = 1 then begin
        step := Int64.float_of_bits (Bytes.get_int64_le b !pos);
        pos := !pos + 8
      end;
      Clock.advance a.clock !step;
      let rss = Backend.resident_bytes backend in
      if rss > a.peak then a.peak <- rss
    | _ ->
      let cpu = get_uvarint b pos in
      Backend.cpu_idle ~flush:(field = 1) backend ~cpu;
      a.retires <- a.retires + 1
  done

let result a =
  {
    allocations = a.allocations;
    frees = a.frees;
    retires = a.retires;
    peak_rss_bytes = a.peak;
    final_stats = Backend.heap_stats a.backend;
    malloc_ns = Telemetry.total_malloc_ns (Backend.telemetry a.backend);
  }

(* ------------------------------------------------------------------ *)
(* The one replay loop behind every entry point.                       *)
(* ------------------------------------------------------------------ *)

type slot =
  | Waiting of Wsc_tcmalloc.Config.t  (* no window run yet *)
  | Running of arm
  | Finished of result
  | Failed of exn

(* Every arm has failed: stop reading the source. *)
exception All_failed

(* Compile [source] window by window; each full window runs every live
   arm over the domain pool (a flush from inside [source]'s callback is
   not a nested map), and the last window finishes them.  An arm is
   created by its first window and released by its last, so a one-window
   fan-out holds at most [jobs] arm states at once.

   Errors are the ones a replay of each arm straight from [source] would
   raise: an arm that raises stops there while the others go on, a source
   that raises (a corrupt block, a free of an unknown id) first lets the
   arms replay the events before the failing one, and the lowest-indexed
   arm's error wins, as in {!Parallel.map}. *)
let replay ?jobs ~topology ~configs source =
  match configs with
  | [] -> []
  | _ :: _ ->
    let slots = ref (Array.of_list (List.map (fun (_, config) -> Waiting config) configs)) in
    let c = compiler ~topology in
    let flush ~last =
      let go a =
        run_window a c;
        if last then Finished (result a) else Running a
      in
      let advance slot =
        match slot with
        | Finished _ | Failed _ -> slot
        | Waiting config -> ( try go (arm ~topology config) with e -> Failed e)
        | Running a -> ( try go a with e -> Failed e)
      in
      slots := Parallel.map ?jobs advance !slots;
      reset c;
      if (not last) && Array.for_all (function Failed _ -> true | _ -> false) !slots then
        raise All_failed
    in
    (match
       source (fun ev ->
           add c ev;
           if c.len >= window_bytes then flush ~last:false)
     with
    | () -> flush ~last:true
    | exception All_failed -> ()
    | exception e ->
      flush ~last:true;
      slots := Array.map (function Failed _ as s -> s | _ -> Failed e) !slots);
    Array.iter (function Failed e -> raise e | _ -> ()) !slots;
    List.mapi
      (fun i (name, _) ->
        match !slots.(i) with Finished r -> (name, r) | _ -> assert false)
      configs

let replay_one ?(config = Wsc_tcmalloc.Config.baseline) ?(topology = Wsc_hw.Topology.default)
    source =
  match replay ~topology ~configs:[ ("", config) ] source with
  | [ (_, r) ] -> r
  | _ -> assert false

let run ?config ?topology reader = replay_one ?config ?topology (Reader.iter reader)

let run_file ?config ?topology path =
  Reader.with_file path (fun reader -> run ?config ?topology reader)

(* Degraded-mode replay: feed the allocator from the salvage scanner
   instead of the strict reader, so a damaged trace replays its surviving
   events (salvage guarantees they are semantically valid) and the loss is
   returned alongside the result instead of raising. *)
let run_salvage ?config ?topology path =
  let report = ref None in
  let res =
    replay_one ?config ?topology (fun f -> report := Some (Salvage.scan ~on_event:f path))
  in
  match !report with Some rep -> (res, rep) | None -> assert false

(* One compile of the file, replayed under every configuration; results
   keep the input order, so the output does not depend on [jobs]. *)
let run_configs ?jobs ?(topology = Wsc_hw.Topology.default) ~configs path =
  replay ?jobs ~topology ~configs (fun f -> Reader.with_file path (fun r -> Reader.iter r f))

(* Preloaded replay: decode the trace once into an immutable event array
   that search loops replay many times over without touching the file.
   Iteration order is the array order, identical to the streaming reader,
   so results match [run_file] bit for bit. *)
let preload path =
  let cap = ref 4096 in
  let buf = ref (Array.make !cap (Event.Advance { dt_ns = 0.0 })) in
  let len = ref 0 in
  Reader.with_file path (fun reader ->
      Reader.iter reader (fun ev ->
          if !len = !cap then begin
            cap := 2 * !cap;
            let grown = Array.make !cap (Event.Advance { dt_ns = 0.0 }) in
            Array.blit !buf 0 grown 0 !len;
            buf := grown
          end;
          !buf.(!len) <- ev;
          incr len));
  Array.sub !buf 0 !len

let run_preloaded ?config ?topology events =
  replay_one ?config ?topology (fun f -> Array.iter f events)

let run_configs_preloaded ?jobs ?(topology = Wsc_hw.Topology.default) ~configs events =
  replay ?jobs ~topology ~configs (fun f -> Array.iter f events)
