(* A record array grown by doubling, with [dummy] in every free entry and
   the free indices on a stack. *)

type 'a t = {
  mutable items : 'a array;
  mutable next : int;  (* indices [next ..] have never been handed out *)
  free : Int_stack.t;
  dummy : 'a;
}

let create ~dummy = { items = Array.make 16 dummy; next = 0; free = Int_stack.create (); dummy }

let add t x =
  let i =
    if not (Int_stack.is_empty t.free) then Int_stack.pop t.free
    else begin
      let i = t.next in
      if i = Array.length t.items then begin
        let items = Array.make (2 * i) t.dummy in
        Array.blit t.items 0 items 0 i;
        t.items <- items
      end;
      t.next <- i + 1;
      i
    end
  in
  t.items.(i) <- x;
  i

let get t i =
  if i >= t.next then invalid_arg "Records.get: index out of range";
  t.items.(i)

let remove t i =
  t.items.(i) <- t.dummy;
  Int_stack.push t.free i

let to_list t =
  let acc = ref [] in
  for i = t.next - 1 downto 0 do
    let x = t.items.(i) in
    if x != t.dummy then acc := x :: !acc
  done;
  !acc
