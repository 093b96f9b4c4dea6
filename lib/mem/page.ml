let size = 65536

type content =
  | Zero
  | Materialized of bytes
  | Synthetic of { seed : int64; cls : Entropy.t }

let materialize = function
  | Zero -> Bytes.make size '\000'
  | Materialized b -> b
  | Synthetic { seed; cls } -> Entropy.generate cls ~seed ~len:size

let is_zero = function
  | Zero -> true
  | Materialized _ | Synthetic _ -> false

let compressed_size algo = function
  | Zero ->
    (* A zero page costs a couple of bytes of token stream under any real
       scheme; count 8 to stay conservative. *)
    (match algo with Compress.Algo.Null -> size | _ -> 8)
  | Materialized b -> String.length (Compress.Algo.compress algo (Bytes.unsafe_to_string b))
  | Synthetic { cls; _ } ->
    int_of_float (ceil (float_of_int size *. Entropy.ratio algo cls))

let codec =
  Util.Codec.(
    variant "page" (fun zero materialized synthetic w -> function
      | Zero -> zero w
      | Materialized b -> materialized w (Bytes.unsafe_to_string b)
      | Synthetic { seed; cls } -> synthetic w seed cls)
    |> case 0 [] Zero
    |> case 1 [ string ] (fun b ->
           if String.length b <> size then
             raise (Reader.Corrupt (Printf.sprintf "page payload of %d bytes" (String.length b)));
           Materialized (Bytes.unsafe_of_string b))
    |> case 2 [ i64; Entropy.codec ] (fun seed cls -> Synthetic { seed; cls })
    |> sealv)
