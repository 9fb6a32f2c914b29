open Wsc_substrate

type config = {
  seed : int;
  mmap_failure_rate : float;
  mmap_failure_burst : int;
  pressure_period_ns : float;
  pressure_duration_ns : float;
  pressure_bytes : int;
  cpu_churn_period_ns : float;
}

let no_faults =
  {
    seed = 0;
    mmap_failure_rate = 0.0;
    mmap_failure_burst = 1;
    pressure_period_ns = 0.0;
    pressure_duration_ns = 0.0;
    pressure_bytes = 0;
    cpu_churn_period_ns = 0.0;
  }

let describe c =
  let parts = ref [] in
  if c.cpu_churn_period_ns > 0.0 then
    parts := Printf.sprintf "cpu-churn every %.1fs" (c.cpu_churn_period_ns /. Units.sec) :: !parts;
  if c.pressure_period_ns > 0.0 && c.pressure_bytes > 0 then
    parts :=
      Printf.sprintf "pressure spikes ~%s every %.1fs"
        (Units.bytes_to_string c.pressure_bytes)
        (c.pressure_period_ns /. Units.sec)
      :: !parts;
  if c.mmap_failure_rate > 0.0 then
    parts := Printf.sprintf "mmap failure rate %.3f" c.mmap_failure_rate :: !parts;
  if !parts = [] then "no faults" else String.concat ", " !parts

type t = {
  config : config;
  clock : Clock.t;
  rng : Rng.t;  (* transient-failure stream, per-process *)
  mutable burst_remaining : int;
  mutable injected : int;
  mutable next_churn : float;
  mutable churn_bursts : int;
}

let create ?(index = 0) ~clock config =
  if config.mmap_failure_rate < 0.0 || config.mmap_failure_rate >= 1.0 then
    invalid_arg "Fault.create: mmap_failure_rate must be in [0, 1)";
  if config.mmap_failure_burst <= 0 then
    invalid_arg "Fault.create: mmap_failure_burst must be positive";
  {
    config;
    clock;
    rng = Rng.create (config.seed + (7919 * index) + 1);
    burst_remaining = 0;
    injected = 0;
    next_churn =
      (if config.cpu_churn_period_ns > 0.0 then
         Clock.now clock +. config.cpu_churn_period_ns
       else infinity);
    churn_bursts = 0;
  }

let transient_mmap_failure t =
  if t.burst_remaining > 0 then begin
    t.burst_remaining <- t.burst_remaining - 1;
    t.injected <- t.injected + 1;
    true
  end
  else if
    t.config.mmap_failure_rate > 0.0
    && Rng.bernoulli t.rng t.config.mmap_failure_rate
  then begin
    t.burst_remaining <- t.config.mmap_failure_burst - 1;
    t.injected <- t.injected + 1;
    true
  end
  else false

(* Pressure spikes are a pure function of (seed, time) so that every query
   order — and both arms of a paired-seed A/B — sees the identical
   machine-level stream.  Each period-long window hides one spike of
   deterministically jittered offset and magnitude. *)
let window_rng seed window = Rng.create ((seed * 1_000_003) lxor (window * 2_654_435_761))

let pressure_bytes_at t ~now =
  let c = t.config in
  if c.pressure_period_ns <= 0.0 || c.pressure_bytes <= 0 || now < 0.0 then 0
  else begin
    let duration = Float.min c.pressure_duration_ns c.pressure_period_ns in
    if duration <= 0.0 then 0
    else begin
      let window = int_of_float (now /. c.pressure_period_ns) in
      let rng = window_rng c.seed window in
      let slack = c.pressure_period_ns -. duration in
      let offset = if slack > 0.0 then Rng.float rng slack else 0.0 in
      let magnitude =
        int_of_float (float_of_int c.pressure_bytes *. (0.5 +. Rng.unit_float rng))
      in
      let into_window = now -. (float_of_int window *. c.pressure_period_ns) in
      if into_window >= offset && into_window < offset +. duration then magnitude else 0
    end
  end

let pressure_bytes t = pressure_bytes_at t ~now:(Clock.now t.clock)

let churn_due t ~now =
  if now >= t.next_churn then begin
    (* Skip any periods an idle driver slept through so the next burst is
       always in the future. *)
    while t.next_churn <= now do
      t.next_churn <- t.next_churn +. t.config.cpu_churn_period_ns
    done;
    t.churn_bursts <- t.churn_bursts + 1;
    true
  end
  else false

(* --- Machine-level chaos (campaign failure injection) ----------------- *)

type chaos = {
  chaos_seed : int;
  crash_prob : float;
  hang_prob : float;
  corrupt_prob : float;
}

let no_chaos = { chaos_seed = 0; crash_prob = 0.0; hang_prob = 0.0; corrupt_prob = 0.0 }

let validate_chaos c =
  let check name p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      invalid_arg (Printf.sprintf "Fault.validate_chaos: %s must be in [0, 1]" name)
  in
  check "crash_prob" c.crash_prob;
  check "hang_prob" c.hang_prob;
  check "corrupt_prob" c.corrupt_prob;
  if c.crash_prob +. c.hang_prob +. c.corrupt_prob > 1.0 then
    invalid_arg "Fault.validate_chaos: mode probabilities must sum to <= 1"

let describe_chaos c =
  if c.crash_prob = 0.0 && c.hang_prob = 0.0 && c.corrupt_prob = 0.0 then "no chaos"
  else
    Printf.sprintf "crash %.3f, hang %.3f, corrupt %.3f (seed %d)" c.crash_prob
      c.hang_prob c.corrupt_prob c.chaos_seed

type chaos_event =
  | Chaos_crash of { at_fraction : float }
  | Chaos_hang of { at_fraction : float; stall_factor : float }
  | Chaos_corrupt

(* Like pressure spikes, the schedule is a pure function of its
   coordinates — here (seed, machine, attempt) — so a machine retried on a
   different domain, or rebuilt after a resume, replays the identical
   failure history. *)
let chaos_event c ~machine ~attempt =
  if c.crash_prob = 0.0 && c.hang_prob = 0.0 && c.corrupt_prob = 0.0 then None
  else begin
    let rng =
      Rng.create
        (((c.chaos_seed * 1_000_003)
         lxor (machine * 2_654_435_761)
         lxor (attempt * 40_503))
        land max_int)
    in
    let u = Rng.unit_float rng in
    if u < c.crash_prob then Some (Chaos_crash { at_fraction = Rng.unit_float rng })
    else if u < c.crash_prob +. c.hang_prob then
      Some
        (Chaos_hang
           { at_fraction = Rng.unit_float rng; stall_factor = 1.0 +. Rng.unit_float rng })
    else if u < c.crash_prob +. c.hang_prob +. c.corrupt_prob then Some Chaos_corrupt
    else None
  end

(* --- Storage chaos (durable-artifact fault injection) ------------------ *)

type storage = {
  storage_seed : int;
  flip_rate : float;
  torn_write_rate : float;
  truncate_rate : float;
  rename_failure_rate : float;
}

let no_storage_faults =
  {
    storage_seed = 0;
    flip_rate = 0.0;
    torn_write_rate = 0.0;
    truncate_rate = 0.0;
    rename_failure_rate = 0.0;
  }

let storage_active c =
  c.flip_rate > 0.0 || c.torn_write_rate > 0.0 || c.truncate_rate > 0.0
  || c.rename_failure_rate > 0.0

let validate_storage c =
  let check name p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      invalid_arg (Printf.sprintf "Fault.validate_storage: %s must be in [0, 1]" name)
  in
  check "flip_rate" c.flip_rate;
  check "torn_write_rate" c.torn_write_rate;
  check "truncate_rate" c.truncate_rate;
  check "rename_failure_rate" c.rename_failure_rate

(* Like the chaos schedule, every storage decision is a pure function of its
   coordinates — (seed, file name, op_index) — so re-running the same write
   sequence reproduces the identical damage, byte for byte, regardless of
   process, wall time or the directory the files are written into (a fresh
   temporary directory per run must not change the draw). *)
let storage_rng c ~path ~op_index =
  Rng.create
    (((c.storage_seed * 1_000_003)
     lxor (Hashtbl.hash (Filename.basename path) * 2_654_435_761)
     lxor (op_index * 40_503))
    land max_int)

type write_damage = { torn_at : int option; flips : (int * int) list }

let no_write_damage = { torn_at = None; flips = [] }

let write_damage c ~path ~op_index ~len =
  if len <= 0 || (c.flip_rate <= 0.0 && c.torn_write_rate <= 0.0) then
    no_write_damage
  else begin
    let rng = storage_rng c ~path ~op_index in
    let torn_at =
      if c.torn_write_rate > 0.0 && Rng.bernoulli rng c.torn_write_rate then
        Some (Rng.int rng (len + 1))
      else None
    in
    let flips = ref [] in
    if c.flip_rate > 0.0 then begin
      (* Geometric gaps between flips: O(flips) draws instead of O(bytes),
         which keeps even 1e-7 rates cheap over multi-megabyte writes. *)
      let log1m = Stdlib.log (1.0 -. c.flip_rate) in
      let pos = ref 0 in
      (try
         while !pos < len do
           let u = Rng.unit_float rng in
           let skip =
             if u <= 0.0 then 0
             else begin
               let s = Stdlib.log (1.0 -. u) /. log1m in
               if s >= float_of_int len then raise Exit else int_of_float s
             end
           in
           pos := !pos + skip;
           if !pos < len then begin
             flips := (!pos, Rng.int rng 8) :: !flips;
             incr pos
           end
         done
       with Exit -> ());
      flips := List.rev !flips
    end;
    { torn_at; flips = !flips }
  end

let truncate_loss c ~path ~op_index ~len =
  if c.truncate_rate <= 0.0 || len <= 0 then 0
  else begin
    let rng = storage_rng c ~path ~op_index in
    if Rng.bernoulli rng c.truncate_rate then 1 + Rng.int rng len else 0
  end

let rename_fails c ~path ~op_index =
  c.rename_failure_rate > 0.0
  && Rng.bernoulli (storage_rng c ~path ~op_index) c.rename_failure_rate

let install t ~vm =
  if t.config.mmap_failure_rate > 0.0 then
    Vm.set_fault_hook vm (Some (fun ~bytes:_ -> transient_mmap_failure t));
  if t.config.pressure_period_ns > 0.0 && t.config.pressure_bytes > 0 then
    Vm.set_pressure_hook vm (Some (fun () -> pressure_bytes t))

let injected_failures t = t.injected
let config t = t.config
