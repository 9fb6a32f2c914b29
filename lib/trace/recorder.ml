open Wsc_substrate
module Topology = Wsc_hw.Topology
module Config = Wsc_tcmalloc.Config
module Driver = Wsc_workload.Driver
module Profile = Wsc_workload.Profile
module Event = Wsc_workload.Trace

type t = {
  writer : Writer.t;
  (* Unboxed int->int table: the recorder probe runs on every simulated
     alloc/free, and a boxed Hashtbl here allocated on each replace. *)
  id_of_addr : Int_table.t;
  mutable next_id : int;
}

let create writer =
  { writer; id_of_addr = Int_table.create ~initial_capacity:4096 (); next_id = 0 }

(* Addresses are reused by the allocator; ordinals are not, which is what
   makes the trace replayable against any allocator configuration.  An
   address maps to the id of its *current* live object: set on alloc,
   cleared on free, so reuse is unambiguous. *)
let probe t : Driver.probe =
  {
    on_alloc =
      (fun ~addr ~size ~cpu ->
        let id = t.next_id in
        t.next_id <- id + 1;
        Int_table.set t.id_of_addr addr id;
        Writer.add t.writer (Event.Alloc { id; size; cpu }));
    on_free =
      (fun ~addr ~cpu ->
        let id = Int_table.find t.id_of_addr addr ~default:(-1) in
        if id >= 0 then begin
          Int_table.remove t.id_of_addr addr;
          Writer.add t.writer (Event.Free { id; cpu })
        end
        else
          invalid_arg
            (Printf.sprintf "Wsc_trace.Recorder: free of unrecorded address %#x" addr));
    on_advance = (fun ~dt_ns -> Writer.add t.writer (Event.Advance { dt_ns }));
    on_retire =
      (fun ~cpu ~flush -> Writer.add t.writer (Event.Retire { cpu; flush }));
  }

let record_app ?(seed = 1) ?(config = Config.baseline)
    ?(platform = Topology.default) ?(epoch_ns = Units.ms) ~duration_ns ~writer
    profile =
  let clock = Clock.create () in
  let sched = Driver.job_sched platform ~first_cpu:0 profile in
  let backend = Wsc_backend.Backend.create ~config ~topology:platform ~clock () in
  let recorder = create writer in
  let driver =
    Driver.create ~seed ~probe:(probe recorder) ~profile ~sched ~backend ~clock ()
  in
  Driver.run driver ~duration_ns ~epoch_ns;
  driver
