let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let tcmalloc_page_size = 8 * kib
let hugepage_size = 2 * mib
let pages_per_hugepage = hugepage_size / tcmalloc_page_size
let us = 1_000.0
let ms = 1_000_000.0
let sec = 1_000_000_000.0
let minute = 60.0 *. sec
let hour = 60.0 *. minute
let day = 24.0 *. hour

let pp_bytes fmt b =
  let fb = float_of_int b in
  let unit_table =
    [ (float_of_int gib, "GiB"); (float_of_int mib, "MiB"); (float_of_int kib, "KiB") ]
  in
  let rec pick = function
    | [] -> Format.fprintf fmt "%d B" b
    | (scale, suffix) :: rest ->
      if fb >= scale then begin
        let v = fb /. scale in
        if Float.abs (Float.round v -. v) < 1e-9 then
          Format.fprintf fmt "%.0f %s" v suffix
        else Format.fprintf fmt "%.2f %s" v suffix
      end
      else pick rest
  in
  pick unit_table

let pp_duration fmt t =
  let abs = Float.abs t in
  if abs >= day then Format.fprintf fmt "%.2f d" (t /. day)
  else if abs >= hour then Format.fprintf fmt "%.2f h" (t /. hour)
  else if abs >= minute then Format.fprintf fmt "%.2f min" (t /. minute)
  else if abs >= sec then Format.fprintf fmt "%.2f s" (t /. sec)
  else if abs >= ms then Format.fprintf fmt "%.2f ms" (t /. ms)
  else if abs >= us then Format.fprintf fmt "%.2f us" (t /. us)
  else Format.fprintf fmt "%.1f ns" t

let bytes_to_string b = Format.asprintf "%a" pp_bytes b
let duration_to_string t = Format.asprintf "%a" pp_duration t
