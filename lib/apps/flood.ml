module W = Util.Codec.Writer
module R = Util.Codec.Reader

let prog_name = "apps:flood"

module K = struct
  type kstate = { read_interval : float; sent : int; received : int }

  let prog_name = prog_name
  let short = "flood"
  let mem_bytes = 4_000_000
  let mem_mix = Workload_mem.mostly_numeric

  (* even rank 2k streams to odd rank 2k+1 *)
  let neighbors ~rank ~size =
    if rank mod 2 = 0 then (if rank + 1 < size then [ rank + 1 ] else [])
    else [ rank - 1 ]

  let kinit ~rank:_ ~size:_ ~extra =
    let ms = match extra with s :: _ -> float_of_string s | [] -> 5.0 in
    { read_interval = ms /. 1000.; sent = 0; received = 0 }

  let encode_k w k =
    W.f64 w k.read_interval;
    W.uvarint w k.sent;
    W.uvarint w k.received

  let decode_k r =
    let read_interval = R.f64 r in
    let sent = R.uvarint r in
    let received = R.uvarint r in
    { read_interval; sent; received }

  let codec_k = Util.Codec.v encode_k decode_k

  let chunk = String.make 8192 '\x5a'

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    if rank mod 2 = 0 && rank + 1 < size then begin
      (* producer: keep the pipe as full as flow control allows, without
         queueing unboundedly in user space *)
      if Mpi.pending_out comm ~dst:(rank + 1) < 65536 then begin
        Mpi.send comm ~dst:(rank + 1) ~tag:'D' chunk;
        Mpi.progress ctx comm;
        Nas.K_compute ({ k with sent = k.sent + 1 }, 1e-4)
      end
      else begin
        Mpi.progress ctx comm;
        Nas.K_compute (k, 1e-3)
      end
    end
    else if rank mod 2 = 1 then begin
      (* slow consumer *)
      match Mpi.recv comm ~src:(rank - 1) ~tag:'D' with
      | Some _ -> Nas.K_compute ({ k with received = k.received + 1 }, k.read_interval)
      | None -> Nas.K_wait k
    end
    else Nas.K_compute (k, 1.0)
end

module P = Nas.Make (K)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module P : Simos.Program.S)
  end
