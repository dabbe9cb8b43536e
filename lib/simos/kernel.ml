module Tele = Gray_util.Telemetry
module Flight = Gray_util.Flight

type error =
  | Fs_error of Fs.error
  | Bad_fd
  | Bad_path
  | Retryable
  | Timeout
  | Unsupported of string
  | Sys_error of string

let error_to_string = function
  | Fs_error e -> Fs.error_to_string e
  | Bad_fd -> "bad file descriptor"
  | Bad_path -> "bad path (expected /d<volume>/...)"
  | Retryable -> "interrupted by transient fault (EINTR/EAGAIN-style; retry)"
  | Timeout -> "syscall deadline exceeded"
  | Unsupported reason -> "unsupported on this backend: " ^ reason
  | Sys_error errno -> "host system error: " ^ errno

type fd = int
type open_file = { of_vol : int; of_ino : int }

type region = {
  r_owner : int;
  r_start_vpn : int;
  r_pages : int;
  mutable r_live : bool;
}

type proc = {
  p_pid : int;
  p_fds : (int, open_file) Hashtbl.t;
  mutable p_next_fd : int;
  mutable p_next_vpn : int;
  mutable p_next_token : int;
  mutable p_regions : region list;
}

type volume = { mutable v_fs : Fs.t; v_disk : Disk.t }

type counters = {
  mutable c_reads : int;
  mutable c_writes : int;
  mutable c_bytes_read : int;
  mutable c_bytes_written : int;
  mutable c_page_ins : int;
  mutable c_page_outs : int;
  mutable c_zero_fills : int;
  mutable c_file_fetches : int;
  mutable c_file_writebacks : int;
}

let zero_counters () =
  {
    c_reads = 0;
    c_writes = 0;
    c_bytes_read = 0;
    c_bytes_written = 0;
    c_page_ins = 0;
    c_page_outs = 0;
    c_zero_fills = 0;
    c_file_fetches = 0;
    c_file_writebacks = 0;
  }

type t = {
  mutable k_engine : Engine.t;  (* replaced wholesale by [restart] *)
  k_platform : Platform.t;
  k_volumes : volume array;
  k_swap : Disk.t;
  k_mem : Memory.t;
  k_cpu : Resource.t;
  k_noise : Gray_util.Rng.t;
  k_swapped : unit Page.Tbl.t;
  k_procs : (int, proc) Hashtbl.t;
  k_sched : Sched.t option;
  mutable k_next_pid : int;
  mutable k_ctr : counters;  (* replaced wholesale by [reset_counters] *)
  k_faults : Fault.t option;
  k_crash : Crash.t option;
  k_drift : Drift.t option;
  k_account : Account.t option;
  k_flight : Flight.t option;
}

type env = { e_k : t; e_proc : proc; mutable e_acct : Account.stats option }

(* Volume [v]'s inodes are made globally unique by packing the volume index
   into the high bits; bit 43 marks the pseudo-file that stands for the
   volume's inode-table blocks. *)
let vol_shift = 44
let meta_bit = 1 lsl 43
let global_ino _t ~volume ~ino = (volume lsl vol_shift) lor ino
let meta_ino volume = (volume lsl vol_shift) lor meta_bit
let vol_of_gino gino = gino lsr vol_shift
let local_ino_of_gino gino = gino land (meta_bit - 1)
let gino_is_meta gino = gino land meta_bit <> 0

let boot ~engine ~platform ?(data_disks = 4) ?volume_blocks ?faults ?crash ?drift
    ?account ?flight ?sched ?(procs = 16) ~seed () =
  if data_disks < 1 then invalid_arg "Kernel.boot: need at least one data disk";
  let make_volume _ =
    let disk = Disk.create platform.Platform.disk in
    let blocks = Option.value volume_blocks ~default:(Disk.capacity_blocks disk) in
    if blocks > Disk.capacity_blocks disk then
      invalid_arg "Kernel.boot: volume larger than disk";
    { v_fs = Fs.create (Fs.default_config ~total_blocks:blocks); v_disk = disk }
  in
  {
    k_engine = engine;
    k_platform = platform;
    k_volumes = Array.init data_disks make_volume;
    k_swap = Disk.create platform.Platform.disk;
    k_mem = Memory.create ~usable_pages:(Platform.usable_pages platform)
        (Platform.memory_layout platform);
    k_cpu = Resource.create ~slots:platform.Platform.cpus;
    k_noise = Gray_util.Rng.create ~seed;
    (* starts small and grows on demand: most boots (and every post-crash
       reboot in an exploration sweep) never swap, and zeroing a 4096-slot
       table per boot dominated the explorer's boot cost *)
    k_swapped = Page.Tbl.create 16;
    (* fleets announce their size so the process table never rehashes
       mid-run; solo boots keep the small default *)
    k_procs = Hashtbl.create (max 16 procs);
    k_sched = Option.map Sched.create sched;
    k_next_pid = 1;
    k_ctr = zero_counters ();
    k_faults =
      (match faults with
      | Some scenario -> Some (Fault.create scenario)
      | None -> (
        match platform.Platform.faults with
        | Some scenario -> Some (Fault.create scenario)
        | None ->
          (* opt-in from the outside: GRAYBOX_FAULTS=canonical|heavy|<x>
             runs any unsuspecting boot under fault injection, which is how
             CI keeps the resilience paths exercised *)
          Option.map Fault.create (Fault.of_env ())));
    k_crash =
      (match crash with
      | Some scenario -> Some (Crash.create scenario)
      | None ->
        (* GRAYBOX_CRASH=durable|at:N|<p> — same opt-in pattern *)
        Option.map Crash.create (Crash.of_env ()));
    k_drift =
      (match drift with
      | Some scenario -> Some (Drift.create scenario)
      | None ->
        (* GRAYBOX_DRIFT=quiet|canonical|heavy — same opt-in pattern *)
        Option.map Drift.create (Drift.of_env ()));
    (* Accounting and the flight recorder are on by default (they draw no
       RNG and advance no clock, so the simulation is unaffected);
       GRAYBOX_ACCOUNT=off / GRAYBOX_FLIGHT=off opt out, and explicit
       boot arguments win over the environment. *)
    k_account =
      (match account with
      | Some true -> Some (Account.create ())
      | Some false -> None
      | None -> if Account.of_env () then Some (Account.create ()) else None);
    k_flight =
      (match flight with
      | Some true -> Some (Flight.create ())
      | Some false -> None
      | None -> Flight.of_env ());
  }

(* Adopt a volume image on a freshly booted kernel (the snapshot-mode
   crash explorer: a fresh boot plus a rolled-back image is the restarted
   machine, minus the replay).  Must run before any process does: resident
   file pages and open descriptors are keyed by the old volume's inodes
   and would go stale — on a fresh boot both sets are empty. *)
let install_volume_image t i fs = t.k_volumes.(i).v_fs <- fs

let engine t = t.k_engine
let platform t = t.k_platform
let data_disks t = Array.length t.k_volumes
let memory t = t.k_mem
let volume_fs t i = t.k_volumes.(i).v_fs
let volume_disk t i = t.k_volumes.(i).v_disk
let swap_disk t = t.k_swap
let pid env = env.e_proc.p_pid
let kernel_of_env env = env.e_k
let account t = t.k_account
let flight t = t.k_flight
let sched t = t.k_sched
let cpu_busy_ns t = Resource.busy_ns t.k_cpu

(* Non-zero only when accounting is on, so accounting-off telemetry keeps
   the untagged (pre-accounting) entry shape. *)
let spid env = match env.e_acct with None -> 0 | Some st -> st.Account.st_pid

let fresh_token env =
  let proc = env.e_proc in
  let token = proc.p_next_token in
  proc.p_next_token <- token + 1;
  token

let resolve_path t path =
  let fail = Error Bad_path in
  if String.length path < 2 || path.[0] <> '/' || path.[1] <> 'd' then fail
  else begin
    let rest_start = match String.index_from_opt path 1 '/' with Some i -> i | None -> String.length path in
    let vol_str = String.sub path 2 (rest_start - 2) in
    match int_of_string_opt vol_str with
    | None -> fail
    | Some v when v < 0 || v >= Array.length t.k_volumes -> fail
    | Some v ->
      let rest =
        if rest_start >= String.length path then "/"
        else String.sub path rest_start (String.length path - rest_start)
      in
      Ok (v, rest)
  end

(* ---- processes ---- *)

(* Drop the frames and swap slots behind pages [lo, hi) of [pid].  When
   swap was never touched (the common case for a short-lived region), no
   probe key is built per page. *)
let drop_anon_range t ~pid ~lo ~hi =
  ignore (Memory.invalidate_anon_range t.k_mem ~pid ~lo ~hi);
  if Page.Tbl.length t.k_swapped > 0 then
    for vpn = lo to hi - 1 do
      Page.Tbl.remove t.k_swapped (Page.Anon { pid; vpn })
    done

let spawn t ?(name = "proc") ?(weight = 1) ?at body =
  let p_pid = t.k_next_pid in
  t.k_next_pid <- t.k_next_pid + 1;
  let proc =
    {
      p_pid;
      p_fds = Hashtbl.create 8;
      p_next_fd = 3;
      p_next_vpn = 0;
      p_next_token = 1;
      p_regions = [];
    }
  in
  let env = { e_k = t; e_proc = proc; e_acct = None } in
  (* Dead regions already dropped their pages (cache and swap) at vfree
     time, and every anonymous page of this process lives in some region,
     so walking the live regions covers the whole address space — no
     pid-wide scan of the swap table needed. *)
  let cleanup () =
    List.iter
      (fun r ->
        if r.r_live then begin
          r.r_live <- false;
          drop_anon_range t ~pid:p_pid ~lo:r.r_start_vpn ~hi:(r.r_start_vpn + r.r_pages)
        end)
      proc.p_regions;
    Hashtbl.remove t.k_procs p_pid;
    (* the run queue and the ledger both learn of the exit here, inside
       the same protected scope as registration: a crashed or cancelled
       fiber leaves neither a scheduler entry nor an unreapable row *)
    (match t.k_sched with
    | None -> ()
    | Some s -> Sched.unregister s ~pid:p_pid);
    match t.k_account with
    | None -> ()
    | Some a -> Account.note_exit a ~pid:p_pid
  in
  (* Registration happens when the fiber actually starts, inside the same
     protected scope as [cleanup]: a fiber cancelled before its first
     instruction (crash-path queue drain) then leaves no trace either. *)
  Engine.spawn t.k_engine ?at ~name (fun () ->
      Hashtbl.replace t.k_procs p_pid proc;
      (* The ledger row appears when the process actually starts, inside
         the same scope as registration: a fiber cancelled before its
         first instruction leaves no accounting trace either.  The row is
         cached in the env so per-syscall bumps never look it up. *)
      (match t.k_account with
      | None -> ()
      | Some a -> env.e_acct <- Some (Account.note_spawn a ~pid:p_pid ~name));
      (match t.k_sched with
      | None -> ()
      | Some s -> Sched.register s ~pid:p_pid ~weight);
      Fun.protect ~finally:cleanup (fun () -> body env))

let run t = Engine.run t.k_engine

(* ---- crash plane ---- *)

let crash_plane t = t.k_crash
let durability_on t = t.k_crash <> None

(* Whole-machine restart after a crash: volatile state (page cache,
   anonymous memory, swap residency, processes) is discarded, each
   volume's file system rolls back to its durable image, and the device
   timelines reset with the fresh engine's clock.  Counters and RNG
   streams survive — they describe the experiment, not the machine.

   The per-process accounting ledger does NOT survive: the rebooted
   machine has no processes, so pid-indexed attribution (and the blame
   matrix) restarts empty.  The drift plane's timer-coarsening regime is
   likewise machine state — its daemon died with the crash and cannot
   keep the regime in force, so the reboot returns the clock to the
   platform resolution (the schedule itself, experiment state, survives
   and is not replayed).  The flight recorder deliberately survives: it
   is the black box, and the pre-crash tail is exactly what a post-crash
   dump is for. *)
let restart t =
  Memory.reset t.k_mem;
  Page.Tbl.reset t.k_swapped;
  Hashtbl.reset t.k_procs;
  Array.iter
    (fun v ->
      Fs.crash v.v_fs;
      Disk.reboot v.v_disk)
    t.k_volumes;
  Disk.reboot t.k_swap;
  Resource.reboot t.k_cpu;
  t.k_engine <- Engine.create ();
  Option.iter Account.reset t.k_account;
  Option.iter Sched.reset t.k_sched;
  Option.iter Drift.note_restart t.k_drift;
  match t.k_crash with
  | None -> ()
  | Some c ->
    Crash.disarm c;
    Crash.note_restart c

(* ---- time and cost plumbing ---- *)

let quantise resolution ns = if resolution <= 1 then ns else ns / resolution * resolution

(* Gray-box timer granularity: the platform clock, coarsened by the drift
   plane's current regime (a Timer_scale event in force), then by the
   fault plane when one asks for it.  Both compose multiplicatively. *)
let base_resolution t =
  let base = t.k_platform.Platform.timer_resolution_ns in
  match t.k_drift with
  | None -> base
  | Some d -> base * Drift.timer_factor d

let timer_resolution t =
  let base = base_resolution t in
  match t.k_faults with
  | None -> base
  | Some f -> Fault.timer_resolution f ~base

let gettime env =
  let t = env.e_k in
  match t.k_faults with
  | None -> quantise (base_resolution t) (Engine.now t.k_engine)
  | Some f ->
    quantise
      (Fault.timer_resolution f ~base:(base_resolution t))
      (Engine.now t.k_engine + Fault.timer_jitter f)

let noised t ns =
  let sigma = t.k_platform.Platform.noise_sigma in
  if sigma = 0.0 || ns = 0 then ns
  else
    max 0 (int_of_float (float_of_int ns *. Gray_util.Dist.lognormal_factor t.k_noise ~sigma))

(* The fault plane's background interference (bursts and spikes) landing
   at [now]. *)
let interference t ~now =
  match t.k_faults with None -> 0 | Some f -> Fault.extra_latency f ~now

(* A syscall accumulates cost on a cursor so that consecutive disk requests
   within one call queue behind each other correctly. *)
let start_call env = Engine.now env.e_k.k_engine + env.e_k.k_platform.Platform.syscall_overhead_ns

let finish_call env ~now =
  let t = env.e_k in
  let start = Engine.now t.k_engine in
  let extra = interference t ~now:start in
  Engine.delay (noised t (now - start) + extra)

(* A call that does no costed work: the kernel entry alone. *)
let charge_overhead env =
  Engine.delay (noised env.e_k env.e_k.k_platform.Platform.syscall_overhead_ns)

let copy_cost t bytes =
  int_of_float (float_of_int bytes *. t.k_platform.Platform.memcopy_byte_ns)

(* ---- event spine ----

   Every syscall, page, disk and plane event reaches its observers — the
   machine-wide counters, the caller's ledger row, the flight ring,
   telemetry and the crash tick — through the functions of this section
   and no other.  The observers draw no RNG and move no clock, so
   switching the ledger or the ring off leaves the simulation unchanged;
   the crash tick and the fault check, which may draw, run at fixed
   points of [sys_entry].  The sinks are a closed set known at compile
   time, so they are plain function calls, not a registry. *)

(* Put one event on the flight ring, in the caller's name. *)
let record env ~ts code ~a ~b =
  match env.e_k.k_flight with
  | None -> ()
  | Some fl -> Flight.record fl ~ts ~code ~pid:env.e_proc.p_pid ~a ~b

(* Close the telemetry span of a syscall that started at [t0]. *)
let span env ?attrs name ~t0 =
  match Tele.active () with
  | None -> ()
  | Some s -> Tele.span_end s ?attrs name ~ts:t0 ~spid:(spid env)

type tally =
  | Hits
  | Misses
  | Fetches  (** file pages read from disk *)
  | Writebacks  (** dirty file pages written to disk *)
  | Page_ins
  | Page_outs
  | Zero_fills
  | Bytes_read  (** one read call of [n] bytes *)
  | Bytes_written  (** one write call of [n] bytes *)
  | Cpu_ns
  | Block_ns
  | Faults  (** injected syscall faults absorbed *)

(* [n] more of [kind]: the machine-wide counter first, where one exists,
   then the caller's ledger cell.  Allocates nothing. *)
let tally env kind n =
  let c = env.e_k.k_ctr in
  (match kind with
  | Fetches -> c.c_file_fetches <- c.c_file_fetches + n
  | Writebacks -> c.c_file_writebacks <- c.c_file_writebacks + n
  | Page_ins -> c.c_page_ins <- c.c_page_ins + n
  | Page_outs -> c.c_page_outs <- c.c_page_outs + n
  | Zero_fills -> c.c_zero_fills <- c.c_zero_fills + n
  | Bytes_read ->
    c.c_reads <- c.c_reads + 1;
    c.c_bytes_read <- c.c_bytes_read + n
  | Bytes_written ->
    c.c_writes <- c.c_writes + 1;
    c.c_bytes_written <- c.c_bytes_written + n
  | Hits | Misses | Cpu_ns | Block_ns | Faults -> ());
  match env.e_acct with
  | None -> ()
  | Some st -> (
    let open Account in
    match kind with
    | Hits -> st.hits <- st.hits + n
    | Misses -> st.misses <- st.misses + n
    | Fetches -> st.fetches <- st.fetches + n
    | Writebacks -> st.writebacks <- st.writebacks + n
    | Page_ins -> st.page_ins <- st.page_ins + n
    | Page_outs -> st.page_outs <- st.page_outs + n
    | Zero_fills -> st.zero_fills <- st.zero_fills + n
    | Bytes_read -> st.bytes_read <- st.bytes_read + n
    | Bytes_written -> st.bytes_written <- st.bytes_written + n
    | Cpu_ns -> st.cpu_ns <- st.cpu_ns + n
    | Block_ns -> st.block_ns <- st.block_ns + n
    | Faults -> st.faults <- st.faults + n)

(* The only disk access: [n] blocks from [block] on, queued behind the
   cursor [now]; returns the cursor after the transfer.  The blocks are
   tallied as [kind] (inode-table I/O passes [None]: it moves no data
   page) and the service time as [Block_ns]. *)
let disk_io env disk ~now ~block ~n kind =
  let d = Disk.access disk ~now ~start_block:block ~nblocks:n in
  (match kind with None -> () | Some kind -> tally env kind n);
  tally env Block_ns d;
  now + d

(* The run batcher: consecutive blocks of one volume queue up and go to
   disk as one transfer, so sequential fetches and writebacks stream. *)
type run = {
  run_kind : tally option;
  mutable run_vol : int;
  mutable run_start : int;
  mutable run_len : int;
}

let new_run kind = { run_kind = kind; run_vol = -1; run_start = -1; run_len = 0 }

let flush_run env r ~now =
  if r.run_len = 0 then now
  else begin
    let disk = env.e_k.k_volumes.(r.run_vol).v_disk in
    let now = disk_io env disk ~now ~block:r.run_start ~n:r.run_len r.run_kind in
    r.run_len <- 0;
    now
  end

let add_run env r ~now ~vol ~block =
  if r.run_len > 0 && vol = r.run_vol && block = r.run_start + r.run_len then begin
    r.run_len <- r.run_len + 1;
    now
  end
  else begin
    let now = flush_run env r ~now in
    r.run_vol <- vol;
    r.run_start <- block;
    r.run_len <- 1;
    now
  end

(* The syscalls the fault plane may fail transiently, with the index the
   flight ring records for each ([fault target=N]) and the telemetry
   name. *)
let fault_target : Flight.code -> (Fault.target * int * string) option = function
  | Flight.Open -> Some (Fault.Open, 0, "open")
  | Flight.Read -> Some (Fault.Read, 1, "read")
  | Flight.Write -> Some (Fault.Write, 2, "write")
  | Flight.Stat -> Some (Fault.Stat, 3, "stat")
  | Flight.Create -> Some (Fault.Create, 4, "create")
  | Flight.Unlink -> Some (Fault.Unlink, 5, "unlink")
  | Flight.Rename -> Some (Fault.Rename, 6, "rename")
  | Flight.Mkdir -> Some (Fault.Mkdir, 7, "mkdir")
  | _ -> None

(* Every syscall passes through here at entry: flight-record the boundary
   (before the crash tick, so the boundary that kills the machine is the
   last event in the black box), bump the caller's per-kind ledger cell,
   tick the crash plane, then let the fault plane fail the call.

   The tick is at {e entry}, so "crash at boundary N" means syscalls
   1..N-1 completed and syscall N never started.  [Crash.Crashed] unwinds
   through the fiber's [Fun.protect] finalisers (descriptor tables,
   regions, the proc entry) and surfaces from [run] as
   [Engine.Fiber_crash].  [true] means an injected transient fault: the
   caller charges the kernel entry, does no work and returns
   [Retryable]. *)
let sys_entry env code =
  let t = env.e_k in
  let boundary = match t.k_crash with Some c -> Crash.syscalls c + 1 | None -> 0 in
  record env ~ts:(Engine.now t.k_engine) code ~a:boundary ~b:0;
  (match env.e_acct with None -> () | Some st -> Account.note_syscall st code);
  (match t.k_crash with
  | Some c when Crash.tick c -> raise Crash.Crashed
  | Some _ | None -> ());
  match t.k_faults, fault_target code with
  | Some f, Some (target, index, name) when Fault.inject_error f target ->
    Tele.event "simos.fault.inject" ~attrs:(fun () -> [ ("target", Tele.String name) ]);
    tally env Faults 1;
    record env ~ts:(Engine.now t.k_engine) Flight.Fault ~a:index ~b:0;
    true
  | _ -> false

let fail_transient env =
  charge_overhead env;
  Error Retryable

(* ---- page events ---- *)

let swap_slot t ~pid ~vpn = ((pid * 1_000_003) + vpn) mod Disk.capacity_blocks t.k_swap

(* The disk block behind a file page; [None] for a hole or a page of a
   deleted file. *)
let backing_block t ~gino ~idx =
  if gino_is_meta gino then Some idx
  else Fs.block_of_page t.k_volumes.(vol_of_gino gino).v_fs ~ino:(local_ino_of_gino gino) ~idx

(* Write back / swap out one victim of a cache fill; returns the updated
   cursor.  Deleted files have no backing block left and are dropped.

   This is the single choke point every evicted page passes through
   (batched fills, per-page fills, drift-plane cache shrinks), so
   eviction blame lives here: the {e initiator} is the process in whose
   syscall the eviction happens — [env]'s pid, never the page owner.  A
   sync-driven or read-driven writeback of somebody else's dirty page is
   the caller's cost and the caller's eviction. *)
let writeback_victim env ~now key ~dirty =
  let t = env.e_k in
  let victim_pid = match key with Page.Anon { pid; _ } -> pid | Page.File _ -> 0 in
  (match t.k_account, env.e_acct with
  | Some a, Some st -> Account.note_eviction a ~evictor:st ~victim_pid
  | _ -> ());
  record env ~ts:now Flight.Evict ~a:victim_pid ~b:(if dirty then 1 else 0);
  match key with
  | Page.File { ino = gino; idx } when dirty -> (
    match backing_block t ~gino ~idx with
    | None -> now
    | Some block ->
      disk_io env t.k_volumes.(vol_of_gino gino).v_disk ~now ~block ~n:1 (Some Writebacks))
  | Page.File _ -> now
  | Page.Anon { pid; vpn } ->
    (* Anonymous pages are dirty by construction (touches write). *)
    let now = disk_io env t.k_swap ~now ~block:(swap_slot t ~pid ~vpn) ~n:1 (Some Page_outs) in
    Page.Tbl.replace t.k_swapped key ();
    now

(* One page's worth of eviction telemetry (a metric bump and a point, as
   the per-page path has always emitted). *)
let note_evictions env ~n =
  if n > 0 then
    match Tele.active () with
    | None -> ()
    | Some s ->
      Tele.add_in s ~n "simos.kernel.evictions";
      Tele.point s "simos.kernel.evict" ~spid:(spid env)
        ~attrs:(fun () -> [ ("pages", Tele.Int n) ])

let handle_evictions env ~now evicted =
  let cur = ref now in
  List.iter
    (fun ({ key; dirty } : Pool.evicted) ->
      cur := writeback_victim env ~now:!cur key ~dirty)
    evicted;
  note_evictions env ~n:(List.length evicted);
  !cur

(* Fetch one file-metadata or data page into the cache.  The hit/miss
   tallies mirror the pool counters the [Memory.access] touches, keeping
   per-pid sums equal to the global pool totals. *)
let fill_page env ~now key =
  match Memory.access env.e_k.k_mem key ~dirty:false with
  | `Hit ->
    tally env Hits 1;
    now
  | `Filled evicted ->
    tally env Misses 1;
    handle_evictions env ~now evicted

(* Charge the read of an inode-table block (open/stat/unlink/utimes). *)
let inode_read env ~now ~vol ~ino =
  let t = env.e_k in
  let v = t.k_volumes.(vol) in
  let block = Fs.inode_block v.v_fs ~ino in
  let key = Page.File { ino = meta_ino vol; idx = block } in
  if Memory.contains t.k_mem key then begin
    ignore (Memory.access t.k_mem key ~dirty:false);
    tally env Hits 1;
    now
  end
  else fill_page env ~now:(disk_io env v.v_disk ~now ~block ~n:1 None) key

(* ---- path syscalls ---- *)

let with_volume env path f =
  match resolve_path env.e_k path with
  | Error e -> Error e
  | Ok (vol, rest) -> f vol rest

let lift_fs = function Ok v -> Ok v | Error e -> Error (Fs_error e)

let simple_path_call env ~name path f =
  with_volume env path (fun vol rest ->
      let t0 = Engine.now env.e_k.k_engine in
      let result, now = f vol rest (start_call env) in
      finish_call env ~now;
      span env name ~t0 ~attrs:(fun () -> [ ("path", Tele.String path) ]);
      result)

let alloc_fd env ~vol ~ino =
  let proc = env.e_proc in
  let fd = proc.p_next_fd in
  proc.p_next_fd <- fd + 1;
  Hashtbl.replace proc.p_fds fd { of_vol = vol; of_ino = ino };
  fd

let open_file env path =
  if sys_entry env Flight.Open then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.open" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino ->
        let now = inode_read env ~now ~vol ~ino in
        (Ok (alloc_fd env ~vol ~ino), now))

let create_file env path =
  if sys_entry env Flight.Create then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.create" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.create_file fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino -> (Ok (alloc_fd env ~vol ~ino), now))

let close env fd =
  ignore (sys_entry env Flight.Close);
  Hashtbl.remove env.e_proc.p_fds fd

let find_fd env fd =
  match Hashtbl.find_opt env.e_proc.p_fds fd with
  | None -> Error Bad_fd
  | Some f -> Ok f

let file_size env fd =
  match find_fd env fd with
  | Error _ -> 0
  | Ok { of_vol; of_ino } -> Fs.size_ino env.e_k.k_volumes.(of_vol).v_fs ~ino:of_ino

let page_size env = env.e_k.k_platform.Platform.page_size

(* Shared page-walking read/write core.  One policy lookup classifies
   each page, and the callbacks replay the per-page path's actions in the
   same order: the run batcher turns consecutive missing blocks into
   single disk transfers, and victims write back between them. *)
let io_pages env ~vol ~ino ~off ~len ~write =
  let t = env.e_k in
  let v = t.k_volumes.(vol) in
  let psz = page_size env in
  let gino = global_ino t ~volume:vol ~ino in
  let t0 = Engine.now t.k_engine in
  let now = ref (start_call env) in
  let first_page = off / psz and last_page = (off + len - 1) / psz in
  let fetches = new_run (Some Fetches) in
  Memory.access_run t.k_mem
    ~n:(last_page - first_page + 1)
    ~key:(fun i -> Page.File { ino = gino; idx = first_page + i })
    ~dirty:write
    ~on_hit:(fun _ _ ->
      tally env Hits 1;
      now := flush_run env fetches ~now:!now)
    ~on_miss:(fun i _ ->
      tally env Misses 1;
      (* Reads must fetch the page; writes of whole pages just allocate a
         cache page (read-modify-write of partial pages is not modelled). *)
      if not write then
        match Fs.block_of_page v.v_fs ~ino ~idx:(first_page + i) with
        | None -> () (* hole: zero-fill, copy cost only *)
        | Some block -> now := add_run env fetches ~now:!now ~vol ~block)
    ~on_evict:(fun k ~dirty -> now := writeback_victim env ~now:!now k ~dirty)
    ~on_page_end:(fun i ~evicted ->
      note_evictions env ~n:evicted;
      let p = first_page + i in
      let page_lo = p * psz in
      now := !now + copy_cost t (min (off + len) (page_lo + psz) - max off page_lo));
  finish_call env ~now:(flush_run env fetches ~now:!now);
  span env
    (if write then "simos.kernel.write" else "simos.kernel.read")
    ~t0
    ~attrs:(fun () -> [ ("off", Tele.Int off); ("len", Tele.Int len) ])

let read env fd ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Kernel.read: negative offset or length";
  if sys_entry env Flight.Read then fail_transient env
  else
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let size = Fs.size_ino fs ~ino:of_ino in
    let len = max 0 (min len (size - off)) in
    if len = 0 then begin
      charge_overhead env;
      Ok 0
    end
    else begin
      io_pages env ~vol:of_vol ~ino:of_ino ~off ~len ~write:false;
      Fs.mark_atime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      tally env Bytes_read len;
      Ok len
    end

let write env fd ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Kernel.write: negative offset or length";
  if sys_entry env Flight.Write then fail_transient env
  else
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let size = Fs.size_ino fs ~ino:of_ino in
    let grow =
      if off + len > size then lift_fs (Fs.resize fs ~ino:of_ino ~size:(off + len))
      else Ok ()
    in
    (match grow with
    | Error e -> Error e
    | Ok () ->
      if len > 0 then io_pages env ~vol:of_vol ~ino:of_ino ~off ~len ~write:true
      else charge_overhead env;
      Fs.mark_mtime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      tally env Bytes_written len;
      Ok len)

let mkdir env path =
  if sys_entry env Flight.Mkdir then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.mkdir" path (fun vol rest now ->
      (lift_fs (Result.map ignore (Fs.mkdir env.e_k.k_volumes.(vol).v_fs rest)), now))

let unlink env path =
  if sys_entry env Flight.Unlink then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.unlink" path (fun vol rest now ->
      let t = env.e_k in
      let fs = t.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino -> (
        let now = inode_read env ~now ~vol ~ino in
        match Fs.unlink fs rest with
        | Error e -> (Error (Fs_error e), now)
        | Ok () ->
          let gino = global_ino t ~volume:vol ~ino in
          ignore
            (Memory.invalidate_if t.k_mem (fun key ->
                 match key with
                 | Page.File { ino = g; _ } -> g = gino
                 | Page.Anon _ -> false));
          (Ok (), now)))

let rename env ~src ~dst =
  if sys_entry env Flight.Rename then fail_transient env
  else
  match resolve_path env.e_k src, resolve_path env.e_k dst with
  | Error e, _ | _, Error e -> Error e
  | Ok (v1, r1), Ok (v2, r2) ->
    if v1 <> v2 then Error Bad_path
    else
      simple_path_call env ~name:"simos.kernel.rename" src (fun _ _ now ->
          (lift_fs (Fs.rename env.e_k.k_volumes.(v1).v_fs ~src:r1 ~dst:r2), now))

let readdir env path =
  ignore (sys_entry env Flight.Readdir);
  simple_path_call env ~name:"simos.kernel.readdir" path (fun vol rest now ->
      (lift_fs (Fs.readdir env.e_k.k_volumes.(vol).v_fs rest), now))

let stat env path =
  if sys_entry env Flight.Stat then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.stat" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.stat_path fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok st ->
        let now = inode_read env ~now ~vol ~ino:st.Fs.st_ino in
        (Ok st, now))

let utimes env path ~atime ~mtime =
  ignore (sys_entry env Flight.Utimes);
  simple_path_call env ~name:"simos.kernel.utimes" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino ->
        let now = inode_read env ~now ~vol ~ino in
        (lift_fs (Fs.set_times fs ~ino ~atime ~mtime), now))

(* ---- durability syscalls ---- *)

(* With no crash plane installed there is no durable/volatile distinction
   to maintain: fsync and sync are free no-ops (no delay, no RNG draw, no
   cache traffic), keeping benign runs byte-identical to a build without
   this plane.  With a plane, they walk the page cache and write dirty
   pages back in place through the read path's run batcher.  The
   writebacks are the {e syncing} caller's cost — the call runs inline in
   its syscall — not whichever process dirtied the pages. *)

let fsync env fd =
  ignore (sys_entry env Flight.Fsync);
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    if t.k_crash = None then Ok ()
    else begin
      let v = t.k_volumes.(of_vol) in
      let gino = global_ino t ~volume:of_vol ~ino:of_ino in
      let pool = Memory.file_pool t.k_mem in
      let t0 = Engine.now t.k_engine in
      let now = ref (start_call env) in
      let writes = new_run (Some Writebacks) in
      for idx = 0 to Fs.pages_of_file v.v_fs ~ino:of_ino - 1 do
        let key = Page.File { ino = gino; idx } in
        if Pool.is_dirty pool key then begin
          (match Fs.block_of_page v.v_fs ~ino:of_ino ~idx with
          | None -> ()
          | Some block -> now := add_run env writes ~now:!now ~vol:of_vol ~block);
          Pool.clean pool key
        end
      done;
      (* the inode itself (size, times, blob) goes out last *)
      let now =
        disk_io env v.v_disk ~now:(flush_run env writes ~now:!now)
          ~block:(Fs.inode_block v.v_fs ~ino:of_ino) ~n:1 None
      in
      (match Fs.fsync_ino v.v_fs ~ino:of_ino with Ok () -> () | Error _ -> ());
      finish_call env ~now;
      span env "simos.kernel.fsync" ~t0 ~attrs:(fun () -> [ ("ino", Tele.Int of_ino) ]);
      Ok ()
    end

let sync env =
  ignore (sys_entry env Flight.Sync);
  let t = env.e_k in
  match t.k_crash with
  | None -> ()
  | Some _ ->
    let pool = Memory.file_pool t.k_mem in
    let t0 = Engine.now t.k_engine in
    let now = ref (start_call env) in
    (* Collect dirty file pages with a backing block, then write them out
       sorted (volume, block): an elevator pass, contiguous runs batched. *)
    let dirty = ref [] in
    Pool.iter pool (fun key ->
        match key with
        | Page.File { ino = gino; idx } when Pool.is_dirty pool key -> (
          match backing_block t ~gino ~idx with
          | None -> ()
          | Some b -> dirty := (vol_of_gino gino, b, key) :: !dirty)
        | Page.File _ | Page.Anon _ -> ());
    let writes = new_run (Some Writebacks) in
    List.iter
      (fun (vol, block, key) ->
        now := add_run env writes ~now:!now ~vol ~block;
        Pool.clean pool key)
      (List.sort compare !dirty);
    now := flush_run env writes ~now:!now;
    Array.iter (fun v -> Fs.sync_all v.v_fs) t.k_volumes;
    finish_call env ~now:!now;
    span env "simos.kernel.sync" ~t0

(* Side-band whole-file content (the FLDC journal records): replaces the
   file's blob without touching its block layout.  Volatile until fsynced,
   like any other write. *)
let write_blob env fd s =
  ignore (sys_entry env Flight.Write_blob);
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    (match Fs.set_blob fs ~ino:of_ino s with
    | Error e -> Error (Fs_error e)
    | Ok () ->
      Fs.mark_mtime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      Engine.delay
        (noised t
           (t.k_platform.Platform.syscall_overhead_ns + copy_cost t (String.length s)));
      Ok ())

let read_blob env fd =
  ignore (sys_entry env Flight.Read_blob);
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let s = Fs.blob fs ~ino:of_ino in
    Fs.mark_atime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
    Engine.delay
      (noised t
         (t.k_platform.Platform.syscall_overhead_ns + copy_cost t (String.length s)));
    Ok s

(* ---- memory syscalls ---- *)

let valloc env ~pages =
  if pages <= 0 then invalid_arg "Kernel.valloc: pages must be positive";
  ignore (sys_entry env Flight.Valloc);
  let proc = env.e_proc in
  let region =
    { r_owner = proc.p_pid; r_start_vpn = proc.p_next_vpn; r_pages = pages; r_live = true }
  in
  proc.p_next_vpn <- proc.p_next_vpn + pages + 1;
  proc.p_regions <- region :: proc.p_regions;
  charge_overhead env;
  region

let vfree env region =
  if region.r_owner <> env.e_proc.p_pid then invalid_arg "Kernel.vfree: not the owner";
  ignore (sys_entry env Flight.Vfree);
  if region.r_live then begin
    region.r_live <- false;
    let lo = region.r_start_vpn in
    drop_anon_range env.e_k ~pid:region.r_owner ~lo ~hi:(lo + region.r_pages);
    charge_overhead env
  end

let vrelease env region ~first ~count =
  if region.r_owner <> env.e_proc.p_pid then invalid_arg "Kernel.vrelease: not the owner";
  if not region.r_live then invalid_arg "Kernel.vrelease: region freed";
  if first < 0 || count < 0 || first + count > region.r_pages then
    invalid_arg "Kernel.vrelease: out of range";
  ignore (sys_entry env Flight.Vrelease);
  let lo = region.r_start_vpn + first in
  drop_anon_range env.e_k ~pid:region.r_owner ~lo ~hi:(lo + count);
  charge_overhead env

let touch_pages env region ~first ~count =
  if not region.r_live then invalid_arg "Kernel.touch_pages: region freed";
  if region.r_owner <> env.e_proc.p_pid then
    invalid_arg "Kernel.touch_pages: not the owner";
  if first < 0 || count < 0 || first + count > region.r_pages then
    invalid_arg "Kernel.touch_pages: out of range";
  ignore (sys_entry env Flight.Touch);
  let t = env.e_k in
  let plat = t.k_platform in
  let resolution = timer_resolution t in
  let tele = Tele.active () in
  let t0 = Engine.now t.k_engine in
  let now = ref t0 in
  let results = Array.make count 0 in
  let base_vpn = region.r_start_vpn + first in
  let owner = region.r_owner in
  let before = ref !now in
  Memory.access_run t.k_mem ~n:count
    ~key:(fun i -> Page.Anon { pid = owner; vpn = base_vpn + i })
    ~dirty:true
    ~on_hit:(fun _ _ ->
      tally env Hits 1;
      before := !now;
      now := !now + plat.Platform.mem_touch_ns)
    ~on_miss:(fun i key ->
      tally env Misses 1;
      before := !now;
      if Page.Tbl.mem t.k_swapped key then begin
        let block = swap_slot t ~pid:owner ~vpn:(base_vpn + i) in
        now := disk_io env t.k_swap ~now:!now ~block ~n:1 (Some Page_ins);
        Page.Tbl.remove t.k_swapped key;
        match tele with
        | None -> ()
        | Some s -> Tele.point s "simos.kernel.page_in" ~spid:(spid env)
      end
      else begin
        now := !now + plat.Platform.page_alloc_zero_ns;
        tally env Zero_fills 1;
        match tele with
        | None -> ()
        | Some s -> Tele.point s "simos.kernel.zero_fill" ~spid:(spid env)
      end)
    ~on_evict:(fun k ~dirty -> now := writeback_victim env ~now:!now k ~dirty)
    ~on_page_end:(fun i ~evicted ->
      note_evictions env ~n:evicted;
      (* Background interference steals time mid-touch; the stolen time is
         real (advances the clock) and visible in the observed sample —
         exactly what fools a naive timing-based paging detector. *)
      now := !now + interference t ~now:!now;
      let raw = !now - !before in
      results.(i) <- max resolution (quantise resolution (noised t raw)));
  Engine.delay (!now - t0);
  span env "simos.kernel.touch_pages" ~t0 ~attrs:(fun () -> [ ("pages", Tele.Int count) ]);
  results

type vmstat = { vm_page_ins : int; vm_page_outs : int }

let vmstat env =
  ignore (sys_entry env Flight.Vmstat);
  charge_overhead env;
  let c = env.e_k.k_ctr in
  { vm_page_ins = c.c_page_ins; vm_page_outs = c.c_page_outs }

(* ---- CPU ---- *)

let compute env ~ns =
  if ns < 0 then invalid_arg "Kernel.compute: negative duration";
  ignore (sys_entry env Flight.Compute);
  let t = env.e_k in
  let duration = noised t ns in
  (* CPU attribution is service time (the noised burst), not queueing. *)
  tally env Cpu_ns duration;
  match t.k_sched with
  | Some s when Sched.participants s > 1 && duration > 0 ->
    (* Contended: reserve the burst one weighted quantum at a time,
       re-entering the slot timeline between slices.  Every contending
       fiber does the same, so FCFS at quantum granularity is weighted
       round-robin.  The burst was noised once, above — slicing adds no
       RNG draws, so the timing channel is the same either way. *)
    let p = env.e_proc.p_pid in
    let chunk = Sched.chunk_ns s ~pid:p in
    let remaining = ref duration in
    while !remaining > 0 do
      let len = min chunk !remaining in
      Engine.delay
        (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration:len);
      Sched.note_slice s ~pid:p ~ns:len;
      remaining := !remaining - len
    done
  | Some s ->
    (* Sole registered process: the exact legacy path (one reservation,
       one delay), so an uncontended scheduler kernel is byte-identical
       to a scheduler-less one.  Grants are still recorded. *)
    Sched.note_slice s ~pid:env.e_proc.p_pid ~ns:duration;
    Engine.delay (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration)
  | None ->
    Engine.delay (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration)

let compute_bytes env ~bytes ~ns_per_byte =
  compute env ~ns:(int_of_float (float_of_int bytes *. ns_per_byte))

(* ---- fault plane ---- *)

let fault_plane t = t.k_faults
let stop_faults t = Option.iter Fault.stop t.k_faults

(* The scenario's background interference, run as ordinary simulated
   processes.  Both fibers are horizon-bounded (and honour [stop_faults])
   so [Engine.run] still terminates. *)
let start_fault_daemons t =
  match t.k_faults with
  | None -> ()
  | Some f ->
    let sc = Fault.scenario f in
    (match sc.Fault.sc_disturb with
    | Some d when d.Fault.di_evict_frac > 0.0 ->
      spawn t ~name:"fault.disturber" (fun env ->
          let rng = Fault.rng f in
          let rec loop () =
            if (not (Fault.stopped f)) && Engine.now t.k_engine < d.Fault.di_horizon_ns
            then begin
              let evicted =
                Memory.invalidate_if t.k_mem (fun key ->
                    match key with
                    | Page.File _ ->
                      Gray_util.Rng.float rng 1.0 < d.Fault.di_evict_frac
                    | Page.Anon _ -> false)
              in
              Fault.note_evictions f evicted;
              if evicted > 0 then begin
                Tele.event "simos.fault.disturb"
                  ~attrs:(fun () -> [ ("evicted", Tele.Int evicted) ]);
                record env ~ts:(Engine.now t.k_engine) Flight.Disturb ~a:evicted ~b:0
              end;
              Engine.delay d.Fault.di_period_ns;
              loop ()
            end
          in
          loop ())
    | Some _ | None -> ());
    (match sc.Fault.sc_pressure with
    | Some p when p.Fault.pr_pages > 0 ->
      spawn t ~name:"fault.pressure" (fun env ->
          let region = valloc env ~pages:p.Fault.pr_pages in
          let rec loop () =
            if (not (Fault.stopped f)) && Engine.now t.k_engine < p.Fault.pr_horizon_ns
            then begin
              ignore (touch_pages env region ~first:0 ~count:p.Fault.pr_pages);
              Fault.note_pressure_wave f;
              Tele.event "simos.fault.pressure_wave";
              record env ~ts:(Engine.now t.k_engine) Flight.Pressure ~a:p.Fault.pr_pages
                ~b:0;
              Engine.delay p.Fault.pr_hold_ns;
              vrelease env region ~first:0 ~count:p.Fault.pr_pages;
              Engine.delay p.Fault.pr_gap_ns;
              loop ()
            end
          in
          loop ();
          vfree env region)
    | Some _ | None -> ())

(* ---- drift plane ---- *)

let drift_plane t = t.k_drift
let stop_drift t = Option.iter Drift.stop t.k_drift

(* Replay the drift schedule as one ordinary simulated process.  The fiber
   is only spawned when the scenario has events, so installing [quiet] is
   indistinguishable from installing nothing.  The daemon owns a single
   region sized for the largest pressure regime of the schedule (untouched
   pages cost nothing) and re-touches whatever it currently holds every
   [dr_retouch_ns], keeping the regime resident against competitors —
   the same shape as the fault plane's pressure fiber, but level-driven
   rather than periodic. *)
let start_drift_daemon t =
  match t.k_drift with
  | None -> ()
  | Some d ->
    let sc = Drift.scenario d in
    if sc.Drift.dr_events <> [] then
      spawn t ~name:"drift.daemon" (fun env ->
          let usable = Platform.usable_pages t.k_platform in
          let cap =
            int_of_float (float_of_int usable *. Drift.max_pressure_frac sc)
          in
          let region = if cap > 0 then Some (valloc env ~pages:cap) else None in
          let held = ref 0 in
          (* Advance to [ts]; while a pressure regime is held, move in
             re-touch steps so the held pages stay hot. *)
          let rec wait_until ts =
            let now = Engine.now t.k_engine in
            if now < ts && not (Drift.stopped d) then begin
              (match region with
              | Some r when !held > 0 ->
                Engine.delay (min sc.Drift.dr_retouch_ns (ts - now));
                ignore (touch_pages env r ~first:0 ~count:!held)
              | Some _ | None -> Engine.delay (ts - now));
              wait_until ts
            end
          in
          let apply ev =
            match ev.Drift.dv_kind with
            | Drift.Cache_resize f ->
              let target =
                max 1
                  (int_of_float (float_of_int (Memory.file_capacity t.k_mem) *. f))
              in
              let t0 = Engine.now t.k_engine in
              let now = ref t0 in
              let evicted = ref 0 in
              Memory.resize_file_into t.k_mem ~capacity_pages:target
                ~on_evict:(fun k ~dirty ->
                  incr evicted;
                  now := writeback_victim env ~now:!now k ~dirty);
              note_evictions env ~n:!evicted;
              Drift.note_evictions d !evicted;
              (* shrink victims' writebacks are real time, like any fill *)
              Engine.delay (!now - t0)
            | Drift.Policy_swap name ->
              Memory.swap_file_policy t.k_mem (Replacement.of_name name)
            | Drift.Timer_scale n -> Drift.set_timer_factor d n
            | Drift.Pressure_level f ->
              let target =
                min cap (int_of_float (float_of_int usable *. f))
              in
              (match region with
              | None -> ()
              | Some r ->
                if target > !held then
                  ignore (touch_pages env r ~first:!held ~count:(target - !held))
                else if target < !held then
                  vrelease env r ~first:target ~count:(!held - target));
              held := target
          in
          let epoch_start = ref (Engine.now t.k_engine) in
          List.iter
            (fun ev ->
              if not (Drift.stopped d) then begin
                wait_until ev.Drift.dv_at_ns;
                if not (Drift.stopped d) then begin
                  apply ev;
                  Drift.note_applied d ev.Drift.dv_kind;
                  (match Tele.active () with
                  | None -> ()
                  | Some s ->
                    (* one span per environment epoch: from the previous
                       mutation (or boot) up to this one *)
                    Tele.span_end s "simos.drift.epoch" ~ts:!epoch_start
                      ~attrs:(fun () ->
                        [ ("next", Tele.String (Drift.kind_to_string ev.Drift.dv_kind)) ]));
                  epoch_start := Engine.now t.k_engine;
                  Tele.event "simos.drift.apply" ~attrs:(fun () ->
                      [ ("kind", Tele.String (Drift.kind_to_string ev.Drift.dv_kind)) ]);
                  let kind, arg =
                    match ev.Drift.dv_kind with
                    | Drift.Cache_resize f -> (0, int_of_float (f *. 100.0))
                    | Drift.Policy_swap _ -> (1, 0)
                    | Drift.Timer_scale n -> (2, n)
                    | Drift.Pressure_level f -> (3, int_of_float (f *. 100.0))
                  in
                  record env ~ts:(Engine.now t.k_engine) Flight.Drift ~a:kind ~b:arg
                end
              end)
            sc.Drift.dr_events;
          (* hold the final regime (if any) out to the horizon *)
          if !held > 0 then wait_until sc.Drift.dr_horizon_ns;
          Option.iter (fun r -> vfree env r) region)

(* ---- experiment control ---- *)

let flush_file_cache t = Memory.drop_file_cache t.k_mem

let drop_all_memory t =
  Memory.reset t.k_mem;
  Page.Tbl.reset t.k_swapped

let live_procs t = Hashtbl.length t.k_procs

(* ---- counters ---- *)

let counters t =
  let c = t.k_ctr in
  { c with c_reads = c.c_reads }

let reset_counters t = t.k_ctr <- zero_counters ()
