type ticker = { period : float; action : float -> unit }
type t = { mutable now : float; queue : ticker Binheap.t }

let create () = { now = 0.0; queue = Binheap.create () }
let[@inline] now t = t.now

let advance_to t target =
  if target > t.now then begin
    (* Fire tickers in deadline order up to the target, rescheduling each as
       it fires so interleaved periods stay correctly ordered. *)
    let rec drain () =
      match Binheap.peek t.queue with
      | Some (deadline, ticker) when deadline <= target ->
        ignore (Binheap.pop t.queue);
        t.now <- Float.max t.now deadline;
        ticker.action t.now;
        Binheap.push t.queue (deadline +. ticker.period) ticker;
        drain ()
      | Some _ | None -> ()
    in
    drain ();
    t.now <- target
  end

let advance t dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative step";
  advance_to t (t.now +. dt)

let every t ~period action =
  if period <= 0.0 then invalid_arg "Clock.every: period must be positive";
  Binheap.push t.queue (t.now +. period) { period; action }
