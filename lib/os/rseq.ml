open Wsc_substrate

type config = { seed : int; preempt_prob : float; max_restarts : int }

let default_preempt_prob = 0.001

let describe c =
  if c.preempt_prob <= 0.0 then
    Printf.sprintf "rseq: churn-driven aborts only, restart budget %d" c.max_restarts
  else
    Printf.sprintf "rseq: preempt-prob %g/step, restart budget %d" c.preempt_prob
      c.max_restarts

type step = Read_vcpu | Pick_class | Prepare | Commit

let all_steps = [ Read_vcpu; Pick_class; Prepare; Commit ]
let n_steps = List.length all_steps

let step_name = function
  | Read_vcpu -> "read-vcpu"
  | Pick_class -> "pick-class"
  | Prepare -> "prepare"
  | Commit -> "commit"

let step_of_index = function
  | 0 -> Read_vcpu
  | 1 -> Pick_class
  | 2 -> Prepare
  | 3 -> Commit
  | i -> invalid_arg (Printf.sprintf "Rseq.step_of_index: %d not in [0, %d)" i n_steps)

type stats = {
  ops : int;
  committed : int;
  restarts : int;
  fallbacks : int;
  forced_aborts : int;
}

type t = {
  config : config;
  rng : Rng.t;  (* involuntary-preemption stream, per-process *)
  mutable armed : step option;  (* one-shot forced abort (migration / test) *)
  mutable passed_pick_class : bool;  (* some attempt of the last op did *)
  mutable ops : int;
  mutable committed : int;
  mutable total_restarts : int;
  mutable fallbacks : int;
  mutable forced_aborts : int;
}

let create ?(index = 0) config =
  if config.preempt_prob < 0.0 || config.preempt_prob >= 1.0 then
    invalid_arg "Rseq.create: preempt_prob must be in [0, 1)";
  if config.max_restarts < 0 then invalid_arg "Rseq.create: max_restarts must be >= 0";
  {
    config;
    rng = Rng.create (config.seed + (7919 * index) + 13);
    armed = None;
    passed_pick_class = false;
    ops = 0;
    committed = 0;
    total_restarts = 0;
    fallbacks = 0;
    forced_aborts = 0;
  }

let config t = t.config
let note_migration t = t.armed <- Some Read_vcpu
let force_preempt t ~step = t.armed <- Some step

let preempted_at t step =
  match t.armed with
  | Some s when s = step ->
    t.armed <- None;
    t.forced_aborts <- t.forced_aborts + 1;
    true
  | Some _ | None ->
    t.config.preempt_prob > 0.0 && Rng.bernoulli t.rng t.config.preempt_prob

(* One attempt passes through the critical section; every step may be the
   preemption point, and an attempt that survives all four commits.  A
   toplevel function, not a local closure, so an operation allocates
   nothing. *)
let rec attempt t restarts =
  let committed =
    if preempted_at t Read_vcpu || preempted_at t Pick_class then false
    else begin
      t.passed_pick_class <- true;
      not (preempted_at t Prepare || preempted_at t Commit)
    end
  in
  if committed then begin
    t.committed <- t.committed + 1;
    restarts
  end
  else if restarts >= t.config.max_restarts then begin
    t.fallbacks <- t.fallbacks + 1;
    -1 - restarts
  end
  else begin
    t.total_restarts <- t.total_restarts + 1;
    attempt t (restarts + 1)
  end

(* Returns [restarts >= 0] when the operation committed after that many
   restarts, and [-1 - restarts] when the restart budget ran out
   (fallback). *)
let run_op t =
  t.ops <- t.ops + 1;
  t.passed_pick_class <- false;
  attempt t 0

let passed_pick_class t = t.passed_pick_class

let stats t =
  {
    ops = t.ops;
    committed = t.committed;
    restarts = t.total_restarts;
    fallbacks = t.fallbacks;
    forced_aborts = t.forced_aborts;
  }
