type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let push t v =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) v in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let fold t init f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
