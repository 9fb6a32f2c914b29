open Wsc_substrate

type addr = int

type t = {
  period : int;
  mutable bytes_until_sample : int;
  tracked : (addr, int * float) Hashtbl.t;  (* addr -> size, alloc time *)
  (* Membership mirror of [tracked]: the per-free "was this sampled?" probe
     is almost always a miss, and an Int_table miss neither hashes through
     a bucket chain nor needs the clock, so the hot free path stays
     allocation-free.  [tracked] keeps the payload for the rare hits. *)
  tracked_set : Int_table.t;
  mutable sampled : int;
}

let create ~period_bytes =
  if period_bytes <= 0 then invalid_arg "Sampler.create: period must be positive";
  {
    period = period_bytes;
    bytes_until_sample = period_bytes;
    tracked = Hashtbl.create 256;
    tracked_set = Int_table.create ~initial_capacity:256 ();
    sampled = 0;
  }

(* Advance the byte counter; [true] means this allocation crossed a sample
   boundary and the caller must [track] it (with a clock reading — deferred
   so the sampled-or-not decision itself never touches the clock). *)
let[@inline] tick t ~size =
  let left = t.bytes_until_sample - size in
  t.bytes_until_sample <- left;
  left <= 0

let track t a ~size ~now =
  t.bytes_until_sample <- t.bytes_until_sample + t.period;
  (* Very large single allocations may cross several periods at once. *)
  if t.bytes_until_sample <= 0 then
    t.bytes_until_sample <- t.period - (-t.bytes_until_sample mod t.period);
  Hashtbl.replace t.tracked a (size, now);
  Int_table.set t.tracked_set a 1;
  t.sampled <- t.sampled + 1

let on_alloc t a ~size ~now =
  if tick t ~size then begin
    track t a ~size ~now;
    true
  end
  else false

let[@inline] is_tracked t a = Int_table.mem t.tracked_set a

let on_free t a ~now =
  match Hashtbl.find_opt t.tracked a with
  | None -> None
  | Some (size, born) ->
    Hashtbl.remove t.tracked a;
    Int_table.remove t.tracked_set a;
    Some (size, now -. born)

let live_tracked t = Hashtbl.length t.tracked
let live_heap_estimate_bytes t = Hashtbl.length t.tracked * t.period

let live_profile t =
  let bins = Hashtbl.create 48 in
  Hashtbl.iter
    (fun _ (size, _) ->
      let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
      let bin = 1 lsl log2 (max 1 size) 0 in
      Hashtbl.replace bins bin (1 + Option.value ~default:0 (Hashtbl.find_opt bins bin)))
    t.tracked;
  Hashtbl.fold (fun bin n acc -> (bin, n) :: acc) bins []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
