(* A fixed-size domain pool with chunked index claiming.

   Tasks are published as a [run : int -> unit] closure plus an index range;
   workers (and the calling domain) claim indices under the pool mutex and
   execute outside it.  The closure writes into a caller-owned results
   array, so the typed plumbing lives entirely in [map]; completion is
   detected when every index is claimed and no claimer is still running.
   The final handshake through the mutex is also what makes every task's
   writes visible to the caller (release/acquire on the lock). *)

type pool = {
  n_workers : int;
  m : Mutex.t;
  cv : Condition.t;  (* work available / slot freed / batch finished *)
  mutable run : int -> unit;  (* current batch task body *)
  mutable next : int;  (* next unclaimed index *)
  mutable limit : int;  (* one past the last index *)
  mutable width : int;  (* max concurrent claimers for this batch *)
  mutable active : int;  (* claimers currently executing a task *)
  mutable domains : unit Domain.t list;
}

let env_jobs () =
  match Sys.getenv_opt "WSC_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let override = Atomic.make 0 (* 0 = unset *)

let set_default_jobs n =
  if n < 1 then invalid_arg "Parallel.set_default_jobs: jobs must be >= 1";
  Atomic.set override n

let default_jobs () =
  match Atomic.get override with
  | n when n >= 1 -> n
  | _ -> (
    match env_jobs () with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ()))

(* Physical parallelism actually available, independent of the [--jobs] /
   [WSC_DOMAINS] request.  On a single-core host, extra domains only add
   scheduling churn and minor-heap pressure — [map] bypasses the pool
   there, which keeps results identical (the map contract is
   order-deterministic). *)
let host_cores () = max 1 (Domain.recommended_domain_count ())

(* One batch at a time may drive the pool; a [map] issued from inside a
   task (nested parallelism) falls back to sequential execution. *)
let busy = Atomic.make false

let no_work = fun (_ : int) -> ()

(* Claim-and-run until the batch has no claimable index left.  Used by both
   worker domains and the calling domain; the caller additionally knows the
   batch is over when [next = limit && active = 0].  Runs with [m] held,
   releasing it around each task. *)
let claim_loop pool ~until_done =
  let rec loop () =
    if pool.next < pool.limit && pool.active < pool.width then begin
      let i = pool.next in
      pool.next <- i + 1;
      pool.active <- pool.active + 1;
      let run = pool.run in
      Mutex.unlock pool.m;
      run i;
      Mutex.lock pool.m;
      pool.active <- pool.active - 1;
      (* A slot freed and possibly the batch finished: wake claimers and
         the caller alike. *)
      Condition.broadcast pool.cv;
      loop ()
    end
    else if until_done && not (pool.next >= pool.limit && pool.active = 0) then begin
      Condition.wait pool.cv pool.m;
      loop ()
    end
    else if not until_done then begin
      Condition.wait pool.cv pool.m;
      loop ()
    end
  in
  loop ()

let worker pool () =
  Mutex.lock pool.m;
  (* Workers never return; they block between batches. *)
  claim_loop pool ~until_done:false

(* The pool lives for the whole process; workers block on the condition
   variable between batches.  Sized once, at first parallel use, to the
   largest job count the process default allows (narrower batches are
   throttled by [width]). *)
let the_pool : pool option Atomic.t = Atomic.make None

let get_pool ~jobs =
  match Atomic.get the_pool with
  | Some p -> p
  | None ->
    let n_workers = max 1 (max jobs (default_jobs ()) - 1) in
    let p =
      {
        n_workers;
        m = Mutex.create ();
        cv = Condition.create ();
        run = no_work;
        next = 0;
        limit = 0;
        width = 0;
        active = 0;
        domains = [];
      }
    in
    p.domains <- List.init n_workers (fun _ -> Domain.spawn (worker p));
    Atomic.set the_pool (Some p);
    p

(* Drive one batch: publish [run] over [0, n), participate in claiming, and
   return once the last claimed task has finished. *)
let run_batch pool ~jobs ~n run =
  Mutex.lock pool.m;
  pool.run <- run;
  pool.next <- 0;
  pool.limit <- n;
  pool.width <- jobs;
  pool.active <- 0;
  Condition.broadcast pool.cv;
  claim_loop pool ~until_done:true;
  pool.run <- no_work;
  pool.limit <- 0;
  Mutex.unlock pool.m

let map ?jobs f inputs =
  let n = Array.length inputs in
  let jobs = match jobs with Some j when j >= 1 -> j | Some _ | None -> default_jobs () in
  let jobs = min jobs n in
  if n = 0 then [||]
  else if jobs <= 1 || host_cores () = 1 || not (Atomic.compare_and_set busy false true)
  then
    (* Reference mode, tiny batch, or nested call: caller's domain only. *)
    Array.map f inputs
  else begin
    let results : 'b option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let run i =
      match f inputs.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    in
    let pool = get_pool ~jobs in
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () -> run_batch pool ~jobs:(min jobs (pool.n_workers + 1)) ~n run);
    (* Index-ordered reduction: surface the first failure by task index,
       else materialize results in input order. *)
    Array.iter (function Some exn -> raise exn | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ?jobs f inputs = Array.to_list (map ?jobs f (Array.of_list inputs))
