type t = { mutable data : float array; mutable len : int }

let create ?(initial_capacity = 16) () =
  { data = Array.make (max 1 initial_capacity) 0.0; len = 0 }

let length t = t.len

let push t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get: out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Fvec.set: out of bounds";
  t.data.(i) <- v

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Fvec.truncate: bad length";
  t.len <- n
