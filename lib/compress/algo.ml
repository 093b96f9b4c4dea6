type t = Null | Rle | Deflate

let all = [ Null; Rle; Deflate ]

let name = function
  | Null -> "null"
  | Rle -> "rle"
  | Deflate -> "deflate"

let of_name = function
  | "null" -> Some Null
  | "rle" -> Some Rle
  | "deflate" | "gzip" -> Some Deflate
  | _ -> None

let compress t s =
  match t with
  | Null -> s
  | Rle -> Rle.compress s
  | Deflate -> Deflate.compress s

let decompress t s =
  match t with
  | Null -> s
  | Rle -> Rle.decompress s
  | Deflate -> Deflate.decompress s

let codec = Util.Codec.enum "compression" [| Null; Rle; Deflate |]
