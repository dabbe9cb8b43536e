(* Host-clock span recorder for the traced benchmark run.

   The benchmark sees the program only through its public calls, so a
   "span" is the host time between the benchmark handing control to a
   layer and getting it back.  Spans are recorded as boundary events
   (enter layer / leave) per execution context: context 0 is the plain
   OCaml stack of the benchmark itself, any other context is a simulated
   process (keyed by pid) running as an engine fiber.

   A syscall suspends its fiber, so spans of different processes overlap
   in host time.  Self time therefore uses exclusive attribution (see
   {!attribute}): one domain runs one fiber at a time, so the host time
   between two consecutive events on a domain belongs to the layer the
   earlier event entered.

   Events live in per-domain buffers (the suite workload runs harness
   tasks on several domains) and stay in memory until the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- layers ----------------------------------------------------------- *)

let unattributed = 0
let boot = 1
let engine = 2
let read = 3
let write = 4
let touch = 5
let fs = 6
let kernel_other = 7
let fccd = 8
let fldc = 9
let mac = 10
let workload = 11
let verify = 12
let task = 13
let pool_idle = 14

let layer_names =
  [|
    "unattributed";
    "Kernel.boot";
    "Kernel.run";
    "Kernel.read";
    "Kernel.write";
    "Kernel.touch_pages";
    "Fs";
    "Kernel.other";
    "Fccd";
    "Fldc";
    "Mac";
    "Workload";
    "Verify";
    "Harness.task";
    "Domain_pool.idle";
  |]

let nlayers = Array.length layer_names

(* ---- syscall kinds ---------------------------------------------------- *)

(* Every call of [Os_intf.S] that enters the kernel.  [gettime] is not a
   syscall (it charges no cost and never suspends), so it stays inside
   whichever layer called it. *)
let kind_names =
  [|
    "read"; "write"; "touch_pages";
    "create"; "unlink"; "rename"; "stat"; "mkdir"; "readdir"; "utimes";
    "open"; "close"; "file_size"; "fsync"; "sync"; "write_blob"; "read_blob";
    "valloc"; "vfree"; "vrelease"; "vmstat"; "compute"; "sleep";
  |]

let nkinds = Array.length kind_names

let kind_of_name name =
  let rec find i =
    if i >= nkinds then invalid_arg ("Spans.kind_of_name: " ^ name)
    else if kind_names.(i) = name then i
    else find (i + 1)
  in
  find 0

(* The namespace operations the per-op [Fs.*] metrics are reported for. *)
let fs_kinds = [ "create"; "unlink"; "rename"; "stat"; "mkdir"; "readdir"; "utimes" ]

let layer_of_kind k =
  match kind_names.(k) with
  | "read" -> read
  | "write" -> write
  | "touch_pages" -> touch
  | "create" | "unlink" | "rename" | "stat" | "mkdir" | "readdir" | "utimes" | "open"
  | "close" ->
    fs
  | _ -> kernel_other

(* ---- growable int columns --------------------------------------------- *)

type col = { mutable data : int array; mutable len : int }

let col () = { data = Array.make 1024 0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let bigger = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  Array.unsafe_set c.data c.len v;
  c.len <- c.len + 1

(* ---- per-domain buffers ----------------------------------------------- *)

(* Boundary event op codes: [>= 0] enters that layer, [leave] pops the
   context's innermost layer. *)
let leave_op = -1

type buf = {
  domain : int;
  ev_t : col;
  ev_ctx : col;
  ev_op : col;
  (* one row per syscall span *)
  sc_kind : col;
  sc_pid : col;
  sc_t0 : col;
  sc_t1 : col;
  sc_pages : col;
  sc_words : col;
  sc_icl : col;  (* innermost open ICL layer of the calling context, or 0 *)
  (* open layers per context, for [sc_icl] *)
  stacks : (int, int list) Hashtbl.t;
}

let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let fresh_buf () =
  let b =
    {
      domain = (Domain.self () :> int);
      ev_t = col ();
      ev_ctx = col ();
      ev_op = col ();
      sc_kind = col ();
      sc_pid = col ();
      sc_t0 = col ();
      sc_t1 = col ();
      sc_pages = col ();
      sc_words = col ();
      sc_icl = col ();
      stacks = Hashtbl.create 16;
    }
  in
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Domain.DLS.new_key fresh_buf
let buf () = Domain.DLS.get key

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  List.rev bs

let clear () =
  List.iter
    (fun b ->
      List.iter
        (fun c -> c.len <- 0)
        [ b.ev_t; b.ev_ctx; b.ev_op; b.sc_kind; b.sc_pid; b.sc_t0; b.sc_t1; b.sc_pages;
          b.sc_words; b.sc_icl ];
      Hashtbl.reset b.stacks)
    (buffers ())

(* ---- recording -------------------------------------------------------- *)

let is_icl l = l = fccd || l = fldc || l = mac

let enter ~ctx layer =
  let b = buf () in
  let t = now_ns () in
  push b.ev_t t;
  push b.ev_ctx ctx;
  push b.ev_op layer;
  let stack = Option.value (Hashtbl.find_opt b.stacks ctx) ~default:[] in
  Hashtbl.replace b.stacks ctx (layer :: stack);
  t

let leave ~ctx =
  let b = buf () in
  let t = now_ns () in
  push b.ev_t t;
  push b.ev_ctx ctx;
  push b.ev_op leave_op;
  (match Hashtbl.find_opt b.stacks ctx with
  | Some (_ :: rest) -> Hashtbl.replace b.stacks ctx rest
  | Some [] | None -> ());
  t

let last_ctx () =
  let b = buf () in
  if b.ev_ctx.len = 0 then 0 else b.ev_ctx.data.(b.ev_ctx.len - 1)

let span ~ctx layer f =
  ignore (enter ~ctx layer);
  match f () with
  | v ->
    ignore (leave ~ctx);
    v
  | exception e ->
    ignore (leave ~ctx);
    raise e

let innermost_icl b ctx =
  match Hashtbl.find_opt b.stacks ctx with
  | None -> 0
  | Some stack -> ( match List.find_opt is_icl stack with Some l -> l | None -> 0)

(* Words allocated by the calling domain so far.  [Gc.counters] itself
   allocates a small tuple; {!words_self_cost} measures that once so a
   span can subtract it. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

let words_self_cost =
  let a = words () in
  let b = words () in
  b - a

let syscall ~ctx ~kind ~pages:(pages_of : 'a -> int) f =
  let b = buf () in
  let icl = innermost_icl b ctx in
  let t0 = enter ~ctx (layer_of_kind kind) in
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  let t1 = leave ~ctx in
  push b.sc_kind kind;
  push b.sc_pid ctx;
  push b.sc_t0 t0;
  push b.sc_t1 t1;
  push b.sc_pages (pages_of r);
  push b.sc_words (max 0 (w1 - w0 - words_self_cost));
  push b.sc_icl icl;
  r

(* ---- exclusive attribution -------------------------------------------- *)

(* [attribute ~t0 ~t1 events] charges every nanosecond of [t0, t1] to
   exactly one layer.  [events] are [(time, ctx, op)] boundary events of
   ONE domain in time order.  Between two consecutive events the time
   goes to the layer the earlier event made current:
   - entering layer [l] makes [l] current;
   - leaving pops the context's innermost layer; the context's next
     layer becomes current, and a simulated process whose stack is
     empty has handed control back to whatever context 0 is running
     (the engine, inside [Kernel.run]).
   Time before the first event goes to [initial] (default
   [unattributed]), as does time after context 0 leaves its last layer.
   The result's cells sum to [t1 - t0] exactly; cell [unattributed] is
   the remainder no named layer claims. *)
let attribute ?(initial = unattributed) ~t0 ~t1 events =
  let acc = Array.make nlayers 0 in
  let stacks = Hashtbl.create 16 in
  let stack ctx = Option.value (Hashtbl.find_opt stacks ctx) ~default:[] in
  let root_top () = match stack 0 with l :: _ -> l | [] -> initial in
  let current = ref initial in
  let last = ref t0 in
  Array.iter
    (fun (t, ctx, op) ->
      let t = max !last (min t t1) in
      acc.(!current) <- acc.(!current) + (t - !last);
      last := t;
      if op >= 0 then begin
        Hashtbl.replace stacks ctx (op :: stack ctx);
        current := op
      end
      else begin
        let rest = match stack ctx with _ :: rest -> rest | [] -> [] in
        Hashtbl.replace stacks ctx rest;
        current :=
          match rest with
          | l :: _ -> l
          | [] -> if ctx = 0 then initial else root_top ()
      end)
    events;
  acc.(!current) <- acc.(!current) + (t1 - !last);
  acc

(* Events of one buffer inside [t0, t1], in recording order. *)
let events_in b ~t0 ~t1 =
  let out = ref [] in
  for i = b.ev_t.len - 1 downto 0 do
    let t = b.ev_t.data.(i) in
    if t >= t0 && t <= t1 then out := (t, b.ev_ctx.data.(i), b.ev_op.data.(i)) :: !out
  done;
  Array.of_list !out

(* ---- syscall span queries --------------------------------------------- *)

type syscall_span = {
  s_kind : int;
  s_pid : int;
  s_t0 : int;
  s_t1 : int;
  s_pages : int;
  s_words : int;
  s_icl : int;
}

let syscalls_in b ~t0 ~t1 =
  let out = ref [] in
  for i = b.sc_kind.len - 1 downto 0 do
    let s0 = b.sc_t0.data.(i) in
    if s0 >= t0 && s0 <= t1 then
      out :=
        {
          s_kind = b.sc_kind.data.(i);
          s_pid = b.sc_pid.data.(i);
          s_t0 = s0;
          s_t1 = b.sc_t1.data.(i);
          s_pages = b.sc_pages.data.(i);
          s_words = b.sc_words.data.(i);
          s_icl = b.sc_icl.data.(i);
        }
        :: !out
  done;
  !out

(* Write every recorded syscall span as tab-separated rows. *)
let dump ~path =
  let oc = open_out path in
  Printf.fprintf oc "domain\tkind\tpid\tstart_ns\tend_ns\tpages\twords\ticl\n";
  List.iter
    (fun b ->
      for i = 0 to b.sc_kind.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n" b.domain
          kind_names.(b.sc_kind.data.(i))
          b.sc_pid.data.(i) b.sc_t0.data.(i) b.sc_t1.data.(i) b.sc_pages.data.(i)
          b.sc_words.data.(i)
          layer_names.(b.sc_icl.data.(i))
      done)
    (buffers ());
  close_out oc
