type t = { mutable data : int array; mutable len : int }

let create ?(initial_capacity = 8) () =
  { data = Array.make (max 1 initial_capacity) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_stack.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let pop_opt t = if t.len = 0 then None else Some (pop t)
let pop_into t buf ~pos ~n =
  let k = min n t.len in
  for i = 0 to k - 1 do
    t.len <- t.len - 1;
    buf.(pos + i) <- t.data.(t.len)
  done;
  k

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_stack.get: out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Int_stack.set: out of bounds";
  t.data.(i) <- v

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Int_stack.truncate: bad length";
  t.len <- n
