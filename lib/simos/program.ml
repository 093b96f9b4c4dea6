type wait =
  | Readable of int
  | Readable_any of int list
  | Writable of int
  | Sleep_until of float
  | Child
  | Stopped

type 'st outcome =
  | Continue of 'st
  | Compute of 'st * float
  | Block of 'st * wait
  | Fork of { parent : 'st; child : 'st }
  | Exec of { st : 'st; prog : string; argv : string list }
  | Exit of int

type ctx = {
  now : unit -> float;
  rng : Util.Rng.t;
  node_id : int;
  pid : int;
  tid : int;
  ppid : unit -> int;
  argv : string list;
  getenv : string -> string option;
  setenv : string -> string -> unit;
  log : string -> unit;
  open_file : ?create:bool -> string -> (int, Errno.t) result;
  unlink : string -> (unit, Errno.t) result;
  file_exists : string -> bool;
  read_fd : int -> max:int -> [ `Data of string | `Eof | `Would_block | `Err of Errno.t ];
  write_fd : int -> string -> (int, Errno.t) result;
  close_fd : int -> unit;
  dup : int -> (int, Errno.t) result;
  dup2 : src:int -> dst:int -> (unit, Errno.t) result;
  fds : unit -> int list;
  fd_readable : int -> bool;
  fd_writable : int -> bool;
  set_fd_owner : int -> int -> unit;
  get_fd_owner : int -> int;
  pipe : unit -> int * int;
  open_pty : unit -> int * int;
  socket : unit -> int;
  socket_unix : unit -> int;
  socketpair : unit -> int * int;
  bind : int -> port:int -> (int, Errno.t) result;
  bind_unix : int -> path:string -> (unit, Errno.t) result;
  listen : int -> backlog:int -> (unit, Errno.t) result;
  accept : int -> int option;
  connect : int -> Simnet.Addr.t -> (unit, Errno.t) result;
  sock_state : int -> Simnet.Fabric.state option;
  sock_refused : int -> bool;
  sock_local_addr : int -> Simnet.Addr.t option;
  mmap : bytes:int -> kind:Mem.Region.kind -> Mem.Region.t;
  mem_write : addr:int -> string -> unit;
  mem_read : addr:int -> len:int -> string;
  spawn_thread : prog:string -> argv:string list -> int;
  sigaction_set : int -> [ `Default | `Ignore | `Handler of string ] -> unit;
  sigaction_get : int -> [ `Default | `Ignore | `Handler of string ];
  send_signal : pid:int -> signal:int -> (unit, Errno.t) result;
  take_signal : unit -> int option;
  wait_child : unit -> [ `Child of int * int | `None | `No_children ];
  kill : pid:int -> (unit, Errno.t) result;
  process_alive : pid:int -> bool;
  ssh : host:int -> prog:string -> argv:string list -> (int, Errno.t) result;
}

module type S = sig
  type state

  val name : string
  val codec : state Util.Codec.t
  val init : argv:string list -> state
  val step : ctx -> state -> state outcome
end

type instance = Instance : { prog : (module S with type state = 'a); mutable st : 'a } -> instance

type outcome_boxed =
  | B_continue
  | B_compute of float
  | B_block of wait
  | B_fork of instance
  | B_exec of { prog : string; argv : string list }
  | B_exit of int

let name_of (Instance { prog = (module P); _ }) = P.name

let step_instance ctx (Instance r) =
  let (module P) = r.prog in
  match P.step ctx r.st with
  | Continue st ->
    r.st <- st;
    B_continue
  | Compute (st, dt) ->
    r.st <- st;
    B_compute dt
  | Block (st, w) ->
    r.st <- st;
    B_block w
  | Fork { parent; child } ->
    r.st <- parent;
    B_fork (Instance { prog = r.prog; st = child })
  | Exec { st; prog; argv } ->
    r.st <- st;
    B_exec { prog; argv }
  | Exit code -> B_exit code

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry : (string, (module S)) Hashtbl.t = Hashtbl.create 64

let register (module P : S) =
  if Hashtbl.mem registry P.name then
    invalid_arg (Printf.sprintf "Program.register: %S already registered" P.name);
  Hashtbl.replace registry P.name (module P : S)

let is_registered name = Hashtbl.mem registry name
let registered_names () = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

let instantiate ~name ~argv =
  match Hashtbl.find_opt registry name with
  | None -> raise Not_found
  | Some (module P) -> Instance { prog = (module P); st = P.init ~argv }

(* (name, state body): the body is framed as a string of its own and
   read back strictly, so a state codec that reads less than it wrote
   fails here instead of restoring a silently wrong state *)
let instance_codec =
  Util.Codec.(
    v
      (fun w (Instance { prog = (module P); st }) ->
        Writer.string w P.name;
        Writer.prefixed (write P.codec) w st)
      (fun r ->
        let name = Reader.string r in
        let body = Reader.sub r (Reader.uvarint r) in
        match Hashtbl.find_opt registry name with
        | None -> raise Not_found
        | Some (module P) ->
          let st = read P.codec body in
          Reader.expect_end body;
          Instance { prog = (module P); st }))

let not_checkpointable name =
  let fail _ = failwith (name ^ " is not checkpointable") in
  Util.Codec.v (fun _ -> fail) fail

let wait_codec =
  Util.Codec.(
    variant "wait" (fun readable writable sleep child stopped any w -> function
      | Readable fd -> readable w fd
      | Writable fd -> writable w fd
      | Sleep_until t -> sleep w t
      | Child -> child w
      | Stopped -> stopped w
      | Readable_any fds -> any w fds)
    |> case 0 [ uvarint ] (fun fd -> Readable fd)
    |> case 1 [ uvarint ] (fun fd -> Writable fd)
    |> case 2 [ f64 ] (fun t -> Sleep_until t)
    |> case 3 [] Child
    |> case 4 [] Stopped
    |> case 5 [ list uvarint ] (fun fds -> Readable_any fds)
    |> sealv)
