module C = Util.Codec

let prog_name = "apps:synthetic"

module K = struct
  type kstate = {
    mb : int;
    rounds : int;
    round : int;
    allocated : bool;
    coll : Mpi.Coll.st option;
  }

  let prog_name = prog_name
  let short = "synthetic"

  (* the footprint is allocated from kstep (it is argv-dependent), so the
     framework-level allocation is a token amount *)
  let mem_bytes = 1_000_000
  let mem_mix = Workload_mem.mostly_code
  let neighbors ~rank:_ ~size:_ = []

  let kinit ~rank:_ ~size:_ ~extra =
    let mb, rounds =
      match extra with
      | [ mb ] -> (int_of_string mb, 10_000)
      | mb :: rounds :: _ -> (int_of_string mb, int_of_string rounds)
      | [] -> (64, 10_000)
    in
    { mb; rounds; round = 0; allocated = false; coll = None }

  let codec_k =
    C.(
      record (fun mb rounds round allocated coll -> { mb; rounds; round; allocated; coll })
      |> field uvarint (fun k -> k.mb)
      |> field uvarint (fun k -> k.rounds)
      |> field uvarint (fun k -> k.round)
      |> field bool (fun k -> k.allocated)
      |> field (option Mpi.Coll.codec) (fun k -> k.coll)
      |> seal)

  let kstep ctx comm k =
    if not k.allocated then begin
      ignore
        (Workload_mem.alloc ctx ~bytes:(k.mb * 1_000_000) ~mix:Workload_mem.all_random
           ~seed:(Mpi.rank comm + 1));
      Nas.K_compute ({ k with allocated = true }, float_of_int k.mb *. 1e-4)
    end
    else
      match k.coll with
      | Some coll -> (
        match Mpi.Coll.step ctx comm coll with
        | `Done _ ->
          if k.round + 1 >= k.rounds then Nas.K_done (float_of_int k.round, true)
          else Nas.K_compute ({ k with coll = None; round = k.round + 1 }, 20e-3)
        | `Pending -> Nas.K_wait { k with coll = Some coll })
      | None -> Nas.K_compute ({ k with coll = Some (Mpi.Coll.start Mpi.Coll.barrier) }, 1e-4)
end

module P = Nas.Make (K)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module P : Simos.Program.S)
  end
