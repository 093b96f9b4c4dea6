(* Checkpointable user programs shared by the chaos harness and the
   DMTCP test suites.  Unlike the throwaway programs in test_simos.ml,
   these serialize their full state, so they survive checkpoint/restart
   and can verify end-to-end correctness (bit-identical results).  Each
   one writes a self-describing verdict to an output file, which is what
   the chaos runner compares against an unfaulted reference run. *)

module C = Util.Codec

(* ------------------------------------------------------------------ *)
(* p:counter — computes for a while, writes the result to a file. *)

module Counter = struct
  type state = { n : int; target : int; out : string }

  let name = "p:counter"

  let codec =
    C.(
      record (fun n target out -> { n; target; out })
      |> field uvarint (fun st -> st.n)
      |> field uvarint (fun st -> st.target)
      |> field string (fun st -> st.out)
      |> seal)

  let init ~argv =
    match argv with
    | [ target; out ] -> { n = 0; target = int_of_string target; out }
    | _ -> { n = 0; target = 100; out = "/tmp/counter" }

  let step (ctx : Simos.Program.ctx) st =
    if st.n < st.target then Simos.Program.Compute ({ st with n = st.n + 1 }, 1e-3)
    else begin
      (match ctx.open_file st.out with
      | Ok fd ->
        ignore (ctx.write_fd fd (Printf.sprintf "done:%d" st.n));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
end

(* ------------------------------------------------------------------ *)
(* p:memhog — allocates synthetic memory then computes forever (until a
   target), modelling a long-running scientific process. *)

module Memhog = struct
  type state = { phase : int; mb : int; iters : int; done_ : int; out : string }

  let name = "p:memhog"

  let codec =
    C.(
      record (fun phase mb iters done_ out -> { phase; mb; iters; done_; out })
      |> field uvarint (fun st -> st.phase)
      |> field uvarint (fun st -> st.mb)
      |> field uvarint (fun st -> st.iters)
      |> field uvarint (fun st -> st.done_)
      |> field string (fun st -> st.out)
      |> seal)

  let init ~argv =
    match argv with
    | [ mb; iters; out ] ->
      { phase = 0; mb = int_of_string mb; iters = int_of_string iters; done_ = 0; out }
    | _ -> { phase = 0; mb = 4; iters = 50; done_ = 0; out = "/tmp/memhog" }

  let step (ctx : Simos.Program.ctx) st =
    if st.phase = 0 then begin
      let region = ctx.mmap ~bytes:(st.mb * 1_000_000) ~kind:Mem.Region.Heap in
      (* touch the first page so the mapping carries real data *)
      ctx.mem_write ~addr:region.Mem.Region.start_addr "memhog-data";
      Simos.Program.Continue { st with phase = 1 }
    end
    else if st.done_ < st.iters then
      Simos.Program.Compute ({ st with done_ = st.done_ + 1 }, 2e-3)
    else begin
      (match ctx.open_file st.out with
      | Ok fd ->
        ignore (ctx.write_fd fd (Printf.sprintf "hog:%d" st.done_));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
end

(* ------------------------------------------------------------------ *)
(* p:stream-server / p:stream-client — a TCP pair exchanging fixed-width
   sequence-numbered records with steady traffic.  The server validates
   strict ordering, so any byte lost or duplicated by a checkpoint,
   drain/refill, or restart shows up as a hard failure. *)

let record_bytes = 8

let encode_record n =
  let b = Bytes.create record_bytes in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.unsafe_to_string b

let decode_record s off = Int64.to_int (String.get_int64_le s off)

module Stream_server = struct
  type state =
    | Boot of { port : int; count : int; out : string }
    | Accepting of { lfd : int; count : int; out : string }
    | Run of { fd : int; expect : int; count : int; buf : string; out : string }

  let name = "p:stream-server"

  let codec =
    C.(
      variant name (fun boot accepting run w -> function
        | Boot { port; count; out } -> boot w port count out
        | Accepting { lfd; count; out } -> accepting w lfd count out
        | Run { fd; expect; count; buf; out } -> run w fd expect count buf out)
      |> case 0 [ uvarint; uvarint; string ] (fun port count out -> Boot { port; count; out })
      |> case 1 [ uvarint; uvarint; string ] (fun lfd count out -> Accepting { lfd; count; out })
      |> case 2
           [ uvarint; uvarint; uvarint; string; string ]
           (fun fd expect count buf out -> Run { fd; expect; count; buf; out })
      |> sealv)

  let init ~argv =
    match argv with
    | [ port; count; out ] -> Boot { port = int_of_string port; count = int_of_string count; out }
    | _ -> Boot { port = 6000; count = 1000; out = "/tmp/stream" }

  let finish (ctx : Simos.Program.ctx) fd out msg =
    (match ctx.open_file out with
    | Ok ofd ->
      ignore (ctx.write_fd ofd msg);
      ctx.close_fd ofd
    | Error _ -> ());
    ctx.close_fd fd;
    Simos.Program.Exit (if String.length msg >= 2 && String.sub msg 0 2 = "OK" then 0 else 1)

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { port; count; out } -> (
      let lfd = ctx.socket () in
      match ctx.bind lfd ~port with
      | Ok _ -> (
        match ctx.listen lfd ~backlog:4 with
        | Ok () -> Simos.Program.Block (Accepting { lfd; count; out }, Simos.Program.Readable lfd)
        | Error _ -> Simos.Program.Exit 2)
      | Error _ -> Simos.Program.Exit 2)
    | Accepting { lfd; count; out } -> (
      match ctx.accept lfd with
      | Some fd ->
        ctx.close_fd lfd;
        Simos.Program.Block (Run { fd; expect = 0; count; buf = ""; out }, Simos.Program.Readable fd)
      | None -> Simos.Program.Block (Accepting { lfd; count; out }, Simos.Program.Readable lfd))
    | Run { fd; expect; count; buf; out } -> (
      match ctx.read_fd fd ~max:65536 with
      | `Data d ->
        let buf = buf ^ d in
        let nrec = String.length buf / record_bytes in
        let ok = ref true in
        let expect = ref expect in
        for i = 0 to nrec - 1 do
          let v = decode_record buf (i * record_bytes) in
          if v <> !expect then ok := false else incr expect
        done;
        let buf = String.sub buf (nrec * record_bytes) (String.length buf mod record_bytes) in
        if not !ok then finish ctx fd out (Printf.sprintf "FAIL at %d" !expect)
        else if !expect >= count then finish ctx fd out (Printf.sprintf "OK %d" !expect)
        else
          Simos.Program.Block (Run { fd; expect = !expect; count; buf; out }, Simos.Program.Readable fd)
      | `Eof -> finish ctx fd out (Printf.sprintf "FAIL eof at %d" expect)
      | `Would_block ->
        Simos.Program.Block (Run { fd; expect; count; buf; out }, Simos.Program.Readable fd)
      | `Err _ -> finish ctx fd out "FAIL err")
  end

module Stream_client = struct
  type state =
    | Boot of { host : int; port : int; count : int }
    | Connecting of { fd : int; count : int }
    | Send of { fd : int; next : int; count : int; pending : string }

  let name = "p:stream-client"

  let codec =
    C.(
      variant name (fun boot connecting send w -> function
        | Boot { host; port; count } -> boot w host port count
        | Connecting { fd; count } -> connecting w fd count
        | Send { fd; next; count; pending } -> send w fd next count pending)
      |> case 0 [ uvarint; uvarint; uvarint ] (fun host port count -> Boot { host; port; count })
      |> case 1 [ uvarint; uvarint ] (fun fd count -> Connecting { fd; count })
      |> case 2
           [ uvarint; uvarint; uvarint; string ]
           (fun fd next count pending -> Send { fd; next; count; pending })
      |> sealv)

  let init ~argv =
    match argv with
    | [ host; port; count ] ->
      Boot { host = int_of_string host; port = int_of_string port; count = int_of_string count }
    | _ -> Boot { host = 0; port = 6000; count = 1000 }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { host; port; count } -> (
      let fd = ctx.socket () in
      match ctx.connect fd (Simnet.Addr.Inet { host; port }) with
      | Ok () ->
        Simos.Program.Block (Connecting { fd; count }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | Error _ -> Simos.Program.Exit 2)
    | Connecting { fd; count } -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        Simos.Program.Continue (Send { fd; next = 0; count; pending = "" })
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (Connecting { fd; count }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ -> Simos.Program.Exit 2)
    | Send { fd; next; count; pending } ->
      if pending <> "" then begin
        match ctx.write_fd fd pending with
        | Ok n when n = String.length pending ->
          Simos.Program.Compute (Send { fd; next; count; pending = "" }, 1e-4)
        | Ok n ->
          Simos.Program.Block
            ( Send { fd; next; count; pending = String.sub pending n (String.length pending - n) },
              Simos.Program.Writable fd )
        | Error _ -> Simos.Program.Exit 2
      end
      else if next < count then
        Simos.Program.Continue (Send { fd; next = next + 1; count; pending = encode_record next })
      else begin
        ctx.close_fd fd;
        Simos.Program.Exit 0
      end
end

(* ------------------------------------------------------------------ *)
(* p:pipeline — forks a child and streams sequence numbers to it through
   a pipe (promoted to a socketpair under DMTCP).  The child validates
   ordering and writes the verdict. *)

module Pipeline = struct
  type state =
    | Start of { count : int; out : string }
    | Parent of { wfd : int; next : int; count : int; pending : string }
    | Child of { rfd : int; expect : int; count : int; buf : string; out : string }

  let name = "p:pipeline"

  let codec =
    C.(
      variant name (fun start parent child w -> function
        | Start { count; out } -> start w count out
        | Parent { wfd; next; count; pending } -> parent w wfd next count pending
        | Child { rfd; expect; count; buf; out } -> child w rfd expect count buf out)
      |> case 0 [ uvarint; string ] (fun count out -> Start { count; out })
      |> case 1
           [ uvarint; uvarint; uvarint; string ]
           (fun wfd next count pending -> Parent { wfd; next; count; pending })
      |> case 2
           [ uvarint; uvarint; uvarint; string; string ]
           (fun rfd expect count buf out -> Child { rfd; expect; count; buf; out })
      |> sealv)

  let init ~argv =
    match argv with
    | [ count; out ] -> Start { count = int_of_string count; out }
    | _ -> Start { count = 500; out = "/tmp/pipeline" }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Start { count; out } ->
      let rfd, wfd = ctx.pipe () in
      Simos.Program.Fork
        {
          parent = Parent { wfd; next = 0; count; pending = "" };
          child = Child { rfd; expect = 0; count; buf = ""; out };
        }
    | Parent { wfd = -1; _ } -> (
      (* writing done: reap the child, then exit *)
      match ctx.wait_child () with
      | `Child _ | `No_children -> Simos.Program.Exit 0
      | `None -> Simos.Program.Block (st, Simos.Program.Child))
    | Parent { wfd; next; count; pending } ->
      if pending <> "" then begin
        match ctx.write_fd wfd pending with
        | Ok n when n = String.length pending ->
          Simos.Program.Compute (Parent { wfd; next; count; pending = "" }, 1e-4)
        | Ok n ->
          Simos.Program.Block
            ( Parent { wfd; next; count; pending = String.sub pending n (String.length pending - n) },
              Simos.Program.Writable wfd )
        | Error _ -> Simos.Program.Exit 2
      end
      else if next < count then
        Simos.Program.Continue (Parent { wfd; next = next + 1; count; pending = encode_record next })
      else begin
        ctx.close_fd wfd;
        Simos.Program.Continue (Parent { wfd = -1; next; count; pending = "" })
      end
    | Child { rfd; expect; count; buf; out } -> (
      let finish msg code =
        (match ctx.open_file out with
        | Ok fd ->
          ignore (ctx.write_fd fd msg);
          ctx.close_fd fd
        | Error _ -> ());
        Simos.Program.Exit code
      in
      match ctx.read_fd rfd ~max:65536 with
      | `Data d ->
        let buf = buf ^ d in
        let nrec = String.length buf / record_bytes in
        let ok = ref true in
        let expect = ref expect in
        for i = 0 to nrec - 1 do
          if decode_record buf (i * record_bytes) <> !expect then ok := false else incr expect
        done;
        let buf = String.sub buf (nrec * record_bytes) (String.length buf mod record_bytes) in
        if not !ok then finish (Printf.sprintf "FAIL at %d" !expect) 1
        else if !expect >= count then finish (Printf.sprintf "OK %d" !expect) 0
        else
          Simos.Program.Block
            (Child { rfd; expect = !expect; count; buf; out }, Simos.Program.Readable rfd)
      | `Eof ->
        if expect >= count then finish (Printf.sprintf "OK %d" expect) 0
        else finish (Printf.sprintf "FAIL eof at %d" expect) 1
      | `Would_block ->
        Simos.Program.Block (Child { rfd; expect; count; buf; out }, Simos.Program.Readable rfd)
      | `Err _ -> finish "FAIL err" 1)
  end

(* ------------------------------------------------------------------ *)
(* p:aware — exercises the dmtcpaware API: holds a critical section for a
   while, during which checkpoints must not start. *)

module Aware = struct
  type state = { phase : int; hold : float; entered_at : float }

  let name = "p:aware"

  let codec =
    C.(
      record (fun phase hold entered_at -> { phase; hold; entered_at })
      |> field uvarint (fun st -> st.phase)
      |> field f64 (fun st -> st.hold)
      |> field f64 (fun st -> st.entered_at)
      |> seal)

  let init ~argv =
    match argv with
    | [ hold ] -> { phase = 0; hold = float_of_string hold; entered_at = 0. }
    | _ -> { phase = 0; hold = 0.5; entered_at = 0. }

  let step (ctx : Simos.Program.ctx) st =
    match st.phase with
    | 0 ->
      Dmtcp.Dmtcpaware.delay_checkpoints ctx;
      Simos.Program.Block
        ( { st with phase = 1; entered_at = ctx.now () },
          Simos.Program.Sleep_until (ctx.now () +. st.hold) )
    | 1 ->
      Dmtcp.Dmtcpaware.allow_checkpoints ctx;
      Simos.Program.Continue { st with phase = 2 }
    | _ -> Simos.Program.Compute (st, 1e-3)
end

(* ------------------------------------------------------------------ *)
(* p:shm — exercises mmap-shared memory across a fork: the parent maps a
   shared segment with a backing file, forks, and the two processes play
   ping/pong through the segment.  After a checkpoint+restart the
   processes must end up sharing one segment again (paper §4.5). *)

module Shm = struct
  type role = Ping | Pong

  type state =
    | Sh_start of { rounds : int; out : string }
    | Sh_run of { role : role; addr : int; round : int; rounds : int; out : string }

  let name = "p:shm"

  let role_codec = C.enum "shm role" [| Ping; Pong |]

  let codec =
    C.(
      variant name (fun start run w -> function
        | Sh_start { rounds; out } -> start w rounds out
        | Sh_run { role; addr; round; rounds; out } -> run w role addr round rounds out)
      |> case 0 [ uvarint; string ] (fun rounds out -> Sh_start { rounds; out })
      |> case 1
           [ role_codec; uvarint; uvarint; uvarint; string ]
           (fun role addr round rounds out -> Sh_run { role; addr; round; rounds; out })
      |> sealv)

  let init ~argv =
    match argv with
    | [ rounds; out ] -> Sh_start { rounds = int_of_string rounds; out }
    | _ -> Sh_start { rounds = 100; out = "/tmp/shm" }

  (* slot layout: 8-byte turn counter; even = ping's turn to write *)
  let read_turn (ctx : Simos.Program.ctx) addr =
    decode_record (ctx.mem_read ~addr ~len:record_bytes) 0

  let write_turn (ctx : Simos.Program.ctx) addr v = ctx.mem_write ~addr (encode_record v)

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Sh_start { rounds; out } ->
      let region =
        ctx.mmap ~bytes:Mem.Page.size
          ~kind:(Mem.Region.Mmap_shared { backing_path = "/dev/shm/pingpong" })
      in
      let addr = region.Mem.Region.start_addr in
      write_turn ctx addr 0;
      Simos.Program.Fork
        {
          parent = Sh_run { role = Ping; addr; round = 0; rounds; out };
          child = Sh_run { role = Pong; addr; round = 0; rounds; out };
        }
    | Sh_run { role; addr; round; rounds; out } ->
      let turn = read_turn ctx addr in
      let mine = match role with Ping -> turn mod 2 = 0 | Pong -> turn mod 2 = 1 in
      if turn >= 2 * rounds then begin
        if role = Ping then begin
          (* verify the counter advanced strictly through both processes *)
          match ctx.open_file out with
          | Ok fd ->
            ignore (ctx.write_fd fd (Printf.sprintf "SHM OK %d" turn));
            ctx.close_fd fd;
            Simos.Program.Exit 0
          | Error _ -> Simos.Program.Exit 1
        end
        else Simos.Program.Exit 0
      end
      else if mine then begin
        write_turn ctx addr (turn + 1);
        Simos.Program.Compute
          (Sh_run { role; addr; round = round + 1; rounds; out }, 1e-3)
      end
      else
        (* poll the shared word; shared memory has no readiness events *)
        Simos.Program.Block
          (Sh_run { role; addr; round; rounds; out }, Simos.Program.Sleep_until (ctx.now () +. 2e-3))
end

(* ------------------------------------------------------------------ *)
(* p:sigapp — installs a handler for SIGUSR1 (10) and ignores SIGTERM
   (15), then counts handled signals until a target is reached.  Signal
   dispositions and the pending queue are checkpointed state. *)

module Sigapp = struct
  type state = { want : int; got : int; out : string; installed : bool }

  let name = "p:sigapp"

  let codec =
    C.(
      record (fun want got out installed -> { want; got; out; installed })
      |> field uvarint (fun st -> st.want)
      |> field uvarint (fun st -> st.got)
      |> field string (fun st -> st.out)
      |> field bool (fun st -> st.installed)
      |> seal)

  let init ~argv =
    match argv with
    | [ want; out ] -> { want = int_of_string want; got = 0; out; installed = false }
    | _ -> { want = 3; got = 0; out = "/tmp/sig"; installed = false }

  let step (ctx : Simos.Program.ctx) st =
    if not st.installed then begin
      ctx.sigaction_set 10 (`Handler "count_usr1");
      ctx.sigaction_set 15 `Ignore;
      Simos.Program.Continue { st with installed = true }
    end
    else
      match ctx.take_signal () with
      | Some 10 ->
        let got = st.got + 1 in
        if got >= st.want then begin
          (match ctx.open_file st.out with
          | Ok fd ->
            ignore (ctx.write_fd fd (Printf.sprintf "SIGNALS %d" got));
            ctx.close_fd fd
          | Error _ -> ());
          Simos.Program.Exit 0
        end
        else Simos.Program.Continue { st with got }
      | Some _ -> Simos.Program.Continue st
      | None -> Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 5e-3))
end

(* ------------------------------------------------------------------ *)
(* p:dirty — materializes real (incompressible) data across many pages,
   then keeps computing while rewriting a small page subset each
   iteration.  This is the dirty-page workload for the content-addressed
   store: successive checkpoints share every frame covering the stable
   pages and re-ship only the dirtied ones. *)

module Dirty = struct
  type state = {
    phase : int;
    pages : int;  (* pages of real data to materialize *)
    dirty : int;  (* pages rewritten every iteration *)
    iters : int;
    done_ : int;
    base : int;  (* region start address, 0 until mapped *)
    out : string;
  }

  let name = "p:dirty"

  let codec =
    C.(
      record (fun phase pages dirty iters done_ base out ->
          { phase; pages; dirty; iters; done_; base; out })
      |> field uvarint (fun st -> st.phase)
      |> field uvarint (fun st -> st.pages)
      |> field uvarint (fun st -> st.dirty)
      |> field uvarint (fun st -> st.iters)
      |> field uvarint (fun st -> st.done_)
      |> field uvarint (fun st -> st.base)
      |> field string (fun st -> st.out)
      |> seal)

  let init ~argv =
    match argv with
    | [ pages; dirty; iters; out ] ->
      {
        phase = 0;
        pages = int_of_string pages;
        dirty = int_of_string dirty;
        iters = int_of_string iters;
        done_ = 0;
        base = 0;
        out;
      }
    | _ -> { phase = 0; pages = 16; dirty = 2; iters = 100; done_ = 0; base = 0; out = "/tmp/dirty" }

  (* page-sized, deterministic, non-periodic, and incompressible enough
     that the checkpoint pipeline cannot shrink it away *)
  let page_payload ~page ~version =
    String.init Mem.Page.size (fun i ->
        let v =
          (i * 131) + ((i lsr 8) * 17) + ((i lsr 16) * 211) + (page * 7919) + (version * 104729)
        in
        Char.chr (v land 0xff))

  let write_page (ctx : Simos.Program.ctx) st ~page ~version =
    ctx.mem_write ~addr:(st.base + (page * Mem.Page.size)) (page_payload ~page ~version)

  let step (ctx : Simos.Program.ctx) st =
    if st.phase = 0 then begin
      let region = ctx.mmap ~bytes:(st.pages * Mem.Page.size) ~kind:Mem.Region.Heap in
      let st = { st with phase = 1; base = region.Mem.Region.start_addr } in
      for page = 0 to st.pages - 1 do
        write_page ctx st ~page ~version:0
      done;
      Simos.Program.Continue st
    end
    else if st.done_ < st.iters then begin
      let st = { st with done_ = st.done_ + 1 } in
      for page = 0 to min st.dirty st.pages - 1 do
        write_page ctx st ~page ~version:st.done_
      done;
      Simos.Program.Compute (st, 2e-3)
    end
    else begin
      (match ctx.open_file st.out with
      | Ok fd ->
        ignore (ctx.write_fd fd (Printf.sprintf "dirty:%d" st.done_));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
end

(* ------------------------------------------------------------------ *)

let registered = ref false

let ensure_registered () =
  if not !registered then begin
    registered := true;
    List.iter Simos.Program.register
      [
        (module Counter : Simos.Program.S);
        (module Memhog);
        (module Dirty);
        (module Stream_server);
        (module Stream_client);
        (module Pipeline);
        (module Aware);
        (module Shm);
        (module Sigapp);
      ]
  end
