type 'a t = {
  mutable keys : float array;
  mutable values : 'a array;
  mutable len : int;
}

let create () = { keys = Array.make 16 0.0; values = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t v =
  let capacity = Array.length t.keys in
  if t.len = capacity then begin
    let keys = Array.make (2 * capacity) 0.0 in
    Array.blit t.keys 0 keys 0 t.len;
    t.keys <- keys;
    let values = Array.make (2 * capacity) v in
    Array.blit t.values 0 values 0 t.len;
    t.values <- values
  end
  else if Array.length t.values = 0 then t.values <- Array.make capacity v

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.len && t.keys.(left) < t.keys.(!smallest) then smallest := left;
  if right < t.len && t.keys.(right) < t.keys.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key v =
  grow t v;
  t.keys.(t.len) <- key;
  t.values.(t.len) <- v;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some (t.keys.(0), t.values.(0))

let pop t =
  if t.len = 0 then None
  else begin
    let key = t.keys.(0) and v = t.values.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.keys.(0) <- t.keys.(t.len);
      t.values.(0) <- t.values.(t.len);
      sift_down t 0
    end;
    Some (key, v)
  end

let pop_until t bound =
  let rec loop acc =
    match peek t with
    | Some (key, _) when key <= bound ->
      (match pop t with Some entry -> loop (entry :: acc) | None -> acc)
    | Some _ | None -> acc
  in
  List.rev (loop [])
