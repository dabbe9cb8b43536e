(* The benchmark's four workloads.

   Every input (paths, sizes, orders, churn) is generated from the seed
   argument; one round of a workload is a set-up phase (boot the kernels,
   create the initial files) followed by the measured phase.  All rounds
   of one run use the same inputs, so they simulate exactly the same
   thing: the round's [signature] captures every simulated output and
   must repeat across rounds and across the traced and untraced runs.

   The three simulated workloads are written once, over any [Os] that
   shares [Os_sim]'s types: instantiated with [Os_sim] they are the
   untraced run, with [Traced_os] the traced one.  [T] adds the spans the
   benchmark records around [Kernel.boot], [Kernel.run], each ICL call
   and each population helper; untraced, its spans are plain calls. *)

open Simos
open Graybox_core

let mib = 1024 * 1024
let page = 4096

(* ---- results ---------------------------------------------------------- *)

(* Simulated counters of one kernel (or, summed, of several) at a point in
   time.  In a unified memory layout the file and anon pools are one pool
   and [anon_*] stay 0; {!Report} splits that pool by page kind. *)
type snap = {
  now : int;
  events : int;
  unified : bool;
  file_hits : int;
  file_misses : int;
  file_evictions : int;
  anon_hits : int;
  anon_misses : int;
  anon_evictions : int;
  evicted_anon : int;  (* evictions whose victim was an anonymous page *)
  zero_fills : int;
  page_ins : int;
  disk_requests : int;
  disk_blocks : int;
  disk_seq : int;
  disk_busy_ns : int;
  syscalls : int;
}

let zero_snap =
  {
    now = 0; events = 0; unified = false; file_hits = 0; file_misses = 0;
    file_evictions = 0; anon_hits = 0; anon_misses = 0; anon_evictions = 0;
    evicted_anon = 0; zero_fills = 0; page_ins = 0; disk_requests = 0;
    disk_blocks = 0; disk_seq = 0; disk_busy_ns = 0; syscalls = 0;
  }

let combine f a b =
  {
    now = f a.now b.now;
    events = f a.events b.events;
    unified = a.unified || b.unified;
    file_hits = f a.file_hits b.file_hits;
    file_misses = f a.file_misses b.file_misses;
    file_evictions = f a.file_evictions b.file_evictions;
    anon_hits = f a.anon_hits b.anon_hits;
    anon_misses = f a.anon_misses b.anon_misses;
    anon_evictions = f a.anon_evictions b.anon_evictions;
    evicted_anon = f a.evicted_anon b.evicted_anon;
    zero_fills = f a.zero_fills b.zero_fills;
    page_ins = f a.page_ins b.page_ins;
    disk_requests = f a.disk_requests b.disk_requests;
    disk_blocks = f a.disk_blocks b.disk_blocks;
    disk_seq = f a.disk_seq b.disk_seq;
    disk_busy_ns = f a.disk_busy_ns b.disk_busy_ns;
    syscalls = f a.syscalls b.syscalls;
  }

let add = combine ( + )
let diff later earlier = combine ( - ) later earlier

(* Page-cache accesses: every hit or miss in the file or anon pool. *)
let accesses s = s.file_hits + s.file_misses + s.anon_hits + s.anon_misses

let snap k =
  let mem = Kernel.memory k in
  let fp = Memory.file_pool mem and ap = Memory.anon_pool mem in
  let unified = fp == ap in
  let disks = Kernel.swap_disk k :: List.init (Kernel.data_disks k) (Kernel.volume_disk k) in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 disks in
  let c = Kernel.counters k in
  let syscalls, evicted_anon =
    match Kernel.account k with
    | None -> (0, 0)
    | Some a ->
      ( List.fold_left (fun acc st -> acc + st.Account.syscalls) 0 (Account.rows a),
        List.fold_left
          (fun acc (_, victim, n) -> if victim <> 0 then acc + n else acc)
          0 (Account.blame_triples a) )
  in
  let eng = Kernel.engine k in
  {
    now = Engine.now eng;
    events = Engine.events_processed eng;
    unified;
    file_hits = Pool.hits fp;
    file_misses = Pool.misses fp;
    file_evictions = Pool.evictions fp;
    anon_hits = (if unified then 0 else Pool.hits ap);
    anon_misses = (if unified then 0 else Pool.misses ap);
    anon_evictions = (if unified then 0 else Pool.evictions ap);
    evicted_anon;
    zero_fills = c.Kernel.c_zero_fills;
    page_ins = c.Kernel.c_page_ins;
    disk_requests = sum Disk.requests;
    disk_blocks = sum Disk.blocks_transferred;
    disk_seq = sum Disk.sequential_hits;
    disk_busy_ns = sum Disk.busy_ns;
    syscalls;
  }

type round = {
  setup_ns : int;  (* host: boot + initial files *)
  run_ns : int;  (* host: measured phase, verification excluded *)
  t_start : int;  (* host clock at round start, measured-phase start, round end *)
  t_setup : int;
  t_end : int;
  sim_ns : int;  (* virtual ns of the measured phase, summed over kernels *)
  measured : snap;  (* simulated counters of the measured phase *)
  agree : int;  (* ICL verdicts that match Introspect ground truth *)
  verdicts : int;
  checks : (string * bool) list;
  headline : (float * float) option;  (* measured ratio, paper's number *)
  granted_pages : int;  (* MAC pages granted *)
  boots : (int * int) list;  (* host ns and words allocated per Kernel.boot *)
  signature : string;  (* every simulated output of the round *)
}

(* What a workload's measured phase reports besides the counters. *)
type outcome = {
  o_agree : int;
  o_verdicts : int;
  o_checks : (string * bool) list;
  o_headline : (float * float) option;
  o_granted : int;
  o_details : string;  (* the workload's own simulated results, marshalled *)
}

(* ---- inputs ----------------------------------------------------------- *)

type scan_in = {
  sc_kseed : int;
  sc_path : string;
  sc_size : int;
  sc_fccd_seed : int;
}

type small_in = {
  sm_kseed : int;
  sm_dirs : string * string;
  sm_prefixes : string * string;
  sm_shuffle_seed : int;
  sm_age_seed : int;
  sm_warm : int list;  (* indices of the files warmed before FCCD ranking *)
  sm_fccd_seed : int;
}

type contend_proc = {
  cp_max : int;  (* bytes *)
  cp_compute_ns : int;
  cp_start_ns : int;
}

(* One kernel's four competing processes. *)
type contend_trial = { ct_kseed : int; ct_procs : contend_proc array }

(* Several independent trials per round: the competition is chaotic, so
   one trial's simulated time swings widely from seed to seed, while the
   sum over trials is steady. *)
type contend_in = contend_trial array

(* Sizes vary little from seed to seed (a 16 MB spread on ~1 GB) so that
   run-to-run spread of the end-to-end numbers stays small; paths, probe
   points, orders and churn vary freely. *)
let scan_inputs seed =
  let rng = Gray_util.Rng.create ~seed in
  let dir = Printf.sprintf "/d0/scan%03d" (Gray_util.Rng.int rng 1000) in
  {
    sc_kseed = Gray_util.Rng.int rng 1_000_000;
    sc_path = dir ^ "/big";
    sc_size = (960 * mib) + (Gray_util.Rng.int rng 4096 * page);
    sc_fccd_seed = Gray_util.Rng.int rng 1_000_000;
  }

let small_files_per_dir = 100
let small_file_bytes = 8 * 1024
let small_epochs = 10

let small_inputs seed =
  let rng = Gray_util.Rng.create ~seed in
  let name () =
    let letter = Char.chr (97 + Gray_util.Rng.int rng 26) in
    Printf.sprintf "%c%02d" letter (Gray_util.Rng.int rng 100)
  in
  let da = name () in
  let db = name () ^ "x" in
  let warm = Array.init (2 * small_files_per_dir) Fun.id in
  Gray_util.Rng.shuffle rng warm;
  {
    sm_kseed = Gray_util.Rng.int rng 1_000_000;
    sm_dirs = ("/d0/" ^ da, "/d0/" ^ db);
    sm_prefixes = (name (), name ());
    sm_shuffle_seed = Gray_util.Rng.int rng 1_000_000;
    sm_age_seed = Gray_util.Rng.int rng 1_000_000;
    sm_warm = List.sort compare (Array.to_list (Array.sub warm 0 40));
    sm_fccd_seed = Gray_util.Rng.int rng 1_000_000;
  }

let contend_procs = 4
let contend_passes = 3
let contend_memory_mib = 256

let contend_trials = 6

let contend_inputs seed =
  let rng = Gray_util.Rng.create ~seed in
  Array.init contend_trials (fun _ ->
      {
        ct_kseed = Gray_util.Rng.int rng 1_000_000;
        ct_procs =
          Array.init contend_procs (fun _ ->
              {
                cp_max = (56 * mib) + (Gray_util.Rng.int rng 8 * mib);
                cp_compute_ns = 20_000_000 + Gray_util.Rng.int rng 10_000_000;
                cp_start_ns = Gray_util.Rng.int rng 5_000_000;
              });
      })

(* ---- tracing hooks ---------------------------------------------------- *)

module type TRACER = sig
  val span : ctx:int -> int -> (unit -> 'a) -> 'a
end

module No_trace = struct
  let span ~ctx:_ _ f = f ()
end

module Trace = struct
  let span = Spans.span
end

module type OS =
  Os_intf.S
    with type env = Kernel.env
     and type fd = Kernel.fd
     and type region = Kernel.region

(* Pair concordance: of the pairs whose ground truth differs, the share a
   predicted order puts the right way round.  [order] lists items first
   to last; [truth] ranks them (the item with the larger truth should
   come first). *)
let concordance ~order ~truth =
  let a = Array.of_list (List.map truth order) in
  let n = Array.length a in
  let agree = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ti = a.(i) and tj = a.(j) in
      if ti <> tj then begin
        incr total;
        if ti > tj then incr agree
      end
    done
  done;
  (!agree, !total)

(* The expected-shape check on a headline number: within 35% of the
   paper's. *)
let paper_check (measured, paper) =
  ("headline within 35% of the paper", Float.abs (measured -. paper) /. paper < 0.35)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Kernel.error_to_string e)

module Make (Os : OS) (T : TRACER) = struct
  module F = Fccd.Make (Os)
  module L = Fldc.Make (Os)
  module M = Mac.Make (Os)
  module W = Gray_apps.Workload.Make (Os)

  (* Host time spent reading ground truth inside the measured phase; it
     is subtracted from [run_ns]. *)
  let verify_ns = ref 0

  let verify env f =
    let t0 = Spans.now_ns () in
    let v = T.span ~ctx:(Os.pid env) Spans.verify f in
    verify_ns := !verify_ns + (Spans.now_ns () - t0);
    v

  let boots = ref []

  let boot ?(platform = Platform.linux_2_2) ?data_disks ?volume_blocks ~seed () =
    let w0 = Spans.words () in
    let t0 = Spans.now_ns () in
    let k =
      T.span ~ctx:0 Spans.boot (fun () ->
          Kernel.boot ~engine:(Engine.create ()) ~platform ?data_disks ?volume_blocks
            ~account:true ~seed ())
    in
    boots := (Spans.now_ns () - t0, Spans.words () - w0) :: !boots;
    k

  let spawn k ?at ~name body =
    Kernel.spawn k ?at ~name (fun env ->
        T.span ~ctx:(Os.pid env) Spans.unattributed (fun () -> body env))

  let run k = T.span ~ctx:0 Spans.engine (fun () -> Kernel.run k)

  let in_proc k body =
    let result = ref None in
    spawn k ~name:"bench" (fun env -> result := Some (body env));
    run k;
    match !result with Some v -> v | None -> failwith "benchmark process did not finish"

  (* Experiment control, not a syscall: drop every cached file page. *)
  let flush ~ctx k = T.span ~ctx Spans.kernel_other (fun () -> Kernel.flush_file_cache k)

  let icl env layer f = T.span ~ctx:(Os.pid env) layer f
  let helper env f = T.span ~ctx:(Os.pid env) Spans.workload f

  (* Wraps one round: host timestamps around set-up and measured phase,
     measured-phase deltas of the simulated counters, and the signature. *)
  let round ~setup ~measure =
    verify_ns := 0;
    boots := [];
    let t_start = Spans.now_ns () in
    let kernels, state = setup () in
    let t_setup_end = Spans.now_ns () in
    (* the counter snapshots are the benchmark's reads; neither phase
       pays for them *)
    let before = List.map snap kernels in
    let t_setup = Spans.now_ns () in
    let o = measure kernels state in
    let t_end = Spans.now_ns () in
    let after = List.map snap kernels in
    let measured =
      List.fold_left add zero_snap (List.map2 diff after before)
    in
    let counters = List.map Kernel.counters kernels in
    {
      setup_ns = t_setup_end - t_start;
      run_ns = t_end - t_setup - !verify_ns;
      t_start;
      t_setup;
      t_end;
      sim_ns = measured.now;
      measured;
      agree = o.o_agree;
      verdicts = o.o_verdicts;
      checks = o.o_checks;
      headline = o.o_headline;
      granted_pages = o.o_granted;
      boots = List.rev !boots;
      signature = Marshal.to_string (measured, counters, List.map snap kernels, o) [];
    }

  (* ---- scan: Figure 2's LRU-thrash regime ----------------------------- *)

  let scan_unit = 20 * mib
  let scan_passes = 2

  (* EXPERIMENTS.md, Figure 2: "The paper's 1 GB cold scan took 54.3 s",
     and a warm linear scan of a file past the cache collapses to that
     disk rate.  The headline is the linear scans' time per GiB. *)
  let paper_scan_s_per_gib = 54.3

  let scan inp =
    round
      ~setup:(fun () ->
        let k = boot ~seed:inp.sc_kseed () in
        in_proc k (fun env ->
            helper env (fun () ->
                ok "mkdir" (Os.mkdir env (Fldc.dirname inp.sc_path));
                W.write_file env inp.sc_path inp.sc_size));
        (* the first measured scan is the paper's cold scan *)
        flush ~ctx:0 k;
        ([ k ], k))
      ~measure:(fun _ k ->
        in_proc k (fun env ->
            let config =
              {
                (Fccd.default_config ~seed:inp.sc_fccd_seed ()) with
                Fccd.access_unit = scan_unit;
                prediction_unit = 5 * mib;
              }
            in
            let timed f =
              let t0 = Os.gettime env in
              f ();
              Os.gettime env - t0
            in
            let linear =
              List.init scan_passes (fun _ ->
                  timed (fun () ->
                      helper env (fun () ->
                          W.read_file_in_units env inp.sc_path ~unit_bytes:scan_unit)))
            in
            let agree = ref 0 and total = ref 0 in
            let gray =
              List.init scan_passes (fun _ ->
                  let bitmap =
                    verify env (fun () ->
                        ok "bitmap" (Introspect.cache_bitmap k ~path:inp.sc_path))
                  in
                  timed (fun () ->
                      let fd = ok "open" (Os.open_file env inp.sc_path) in
                      let plan =
                        icl env Spans.fccd (fun () -> F.probe_fd env config ~path:inp.sc_path fd)
                      in
                      verify env (fun () ->
                          let cached (e : Fccd.extent) =
                            let first = e.Fccd.ext_off / page in
                            let last =
                              min (Array.length bitmap) ((e.ext_off + e.ext_len + page - 1) / page)
                            in
                            let n = ref 0 in
                            for p = first to last - 1 do
                              if bitmap.(p) then incr n
                            done;
                            float_of_int !n /. float_of_int (max 1 (last - first))
                          in
                          let a, t = concordance ~order:(Fccd.extents plan) ~truth:cached in
                          agree := !agree + a;
                          total := !total + t);
                      (* reading the plan's extents in order is the
                         application's reading, not FCCD's probing *)
                      helper env (fun () -> F.read_plan env fd plan ~f:(fun ~off:_ ~len:_ -> ()));
                      Os.close env fd))
            in
            let gib = float_of_int inp.sc_size /. float_of_int (1024 * mib) in
            let mean xs =
              float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
            in
            let linear_s_per_gib = mean linear /. 1e9 /. gib in
            let headline = (linear_s_per_gib, paper_scan_s_per_gib) in
            let checks =
              paper_check headline
              :: List.map2
                   (fun l g -> ("gray-box scan beats linear scan past the cache", g < l))
                   linear gray
            in
            {
              o_agree = !agree;
              o_verdicts = !total;
              o_checks = checks;
              o_headline = Some headline;
              o_granted = 0;
              o_details = Marshal.to_string (linear, gray) [];
            }))

  (* ---- smallfiles: Figures 5 and 6 ----------------------------------- *)

  (* EXPERIMENTS.md, Figure 5: "i-number sort wins by ~6x (Linux/NetBSD)"
     over random order, 200 x 8 KB files in two directories, cold cache. *)
  let paper_inumber_speedup = 6.0

  let small_files inp =
    round
      ~setup:(fun () ->
        let k = boot ~seed:inp.sm_kseed () in
        let da, db = inp.sm_dirs and pa, pb = inp.sm_prefixes in
        let a, b =
          in_proc k (fun env ->
              helper env (fun () ->
                  let mk dir prefix =
                    W.make_files env ~dir ~prefix ~count:small_files_per_dir ~size:small_file_bytes
                  in
                  let a = mk da pa in
                  (a, mk db pb)))
        in
        ([ k ], (k, a, b)))
      ~measure:(fun _ (k, a, b) ->
        in_proc k (fun env ->
            let da, db = inp.sm_dirs in
            let agree = ref 0 and total = ref 0 in
            let cold_read paths =
              flush ~ctx:(Os.pid env) k;
              let t0 = Os.gettime env in
              helper env (fun () -> List.iter (fun p -> W.read_file env p) paths);
              Os.gettime env - t0
            in
            let by_inumber paths =
              let ordered =
                ok "order_by_inumber" (icl env Spans.fldc (fun () -> L.order_by_inumber env ~paths))
              in
              let order = List.map (fun s -> s.Fldc.so_path) ordered in
              verify env (fun () ->
                  let first_block p =
                    match Introspect.file_layout k ~path:p with
                    | Ok blocks when Array.length blocks > 0 -> -blocks.(0)
                    | Ok _ | Error _ -> 0
                  in
                  let x, n = concordance ~order ~truth:first_block in
                  agree := !agree + x;
                  total := !total + n);
              order
            in
            let mixed = List.concat (List.map2 (fun x y -> [ x; y ]) a b) in
            let shuffled =
              let arr = Array.of_list mixed in
              Gray_util.Rng.shuffle (Gray_util.Rng.create ~seed:inp.sm_shuffle_seed) arr;
              Array.to_list arr
            in
            let random_ns = cold_read shuffled in
            let fresh_ns = cold_read (by_inumber shuffled) in
            let rng = Gray_util.Rng.create ~seed:inp.sm_age_seed in
            for _ = 1 to small_epochs do
              List.iter
                (fun dir ->
                  helper env (fun () ->
                      W.age_directory env rng ~dir ~deletes:5 ~creates:5 ~size:small_file_bytes))
                [ da; db ]
            done;
            let current () =
              helper env (fun () -> W.paths_in env ~dir:da @ W.paths_in env ~dir:db)
            in
            let aged_ns = cold_read (by_inumber (current ())) in
            List.iter
              (fun dir ->
                ok "refresh" (icl env Spans.fldc (fun () -> L.refresh_directory env ~dir ())))
              [ da; db ];
            let refreshed_ns = cold_read (by_inumber (current ())) in
            (* FCCD: rank every file after warming a seed-chosen subset *)
            flush ~ctx:(Os.pid env) k;
            let paths = Array.of_list (current ()) in
            helper env (fun () -> List.iter (fun i -> W.read_file env paths.(i)) inp.sm_warm);
            let truth =
              verify env (fun () ->
                  let tbl = Hashtbl.create 256 in
                  Array.iter
                    (fun p -> Hashtbl.replace tbl p (Introspect.cached_fraction k ~path:p))
                    paths;
                  tbl)
            in
            let config = Fccd.default_config ~seed:inp.sm_fccd_seed () in
            let ranks =
              ok "order_files"
                (icl env Spans.fccd (fun () ->
                     F.order_files env config ~paths:(Array.to_list paths)))
            in
            let x, n =
              concordance
                ~order:(List.map (fun r -> r.Fccd.fr_path) ranks)
                ~truth:(Hashtbl.find truth)
            in
            let headline =
              (float_of_int random_ns /. float_of_int fresh_ns, paper_inumber_speedup)
            in
            {
              o_agree = !agree + x;
              o_verdicts = !total + n;
              o_checks =
                [
                  paper_check headline;
                  ("i-number order beats random order", fresh_ns < random_ns);
                  ("aging degrades i-number order", aged_ns > fresh_ns);
                  ("refresh restores i-number order", refreshed_ns < aged_ns);
                ];
              o_headline = Some headline;
              o_granted = 0;
              o_details =
                Marshal.to_string
                  ( random_ns,
                    fresh_ns,
                    aged_ns,
                    refreshed_ns,
                    List.map (fun r -> r.Fccd.fr_path) ranks )
                  [];
            }))

  (* ---- contend: Figure 7's regime, scaled down ------------------------ *)

  let contend inp =
    round
      ~setup:(fun () ->
        let platform = Platform.with_memory_mib Platform.linux_2_2 contend_memory_mib in
        let ks =
          (* no files: one small data volume keeps boot cheap *)
          Array.to_list
            (Array.map
               (fun tr ->
                 boot ~platform ~data_disks:1 ~volume_blocks:16384 ~seed:tr.ct_kseed ())
               inp)
        in
        (ks, ()))
      ~measure:(fun ks () ->
        let agree = ref 0 and total = ref 0 and granted = ref 0 and misses = ref 0 in
        let grants = Array.make_matrix (Array.length inp) contend_procs [] in
        let swap_io = ref true in
        List.iteri
          (fun t k ->
            let ledger = Option.get (Kernel.account k) in
            let page_ins pid =
              match Account.find ledger ~pid with Some st -> st.Account.page_ins | None -> 0
            in
            Array.iteri
              (fun i p ->
                spawn k ~at:p.cp_start_ns ~name:(Printf.sprintf "sort%d" i) (fun env ->
                    let cfg =
                      {
                        (Mac.default_config ()) with
                        Mac.initial_increment = 4 * mib;
                        max_increment = 8 * mib;
                      }
                    in
                    for _ = 1 to contend_passes do
                      let rec alloc tries =
                        match
                          icl env Spans.mac (fun () ->
                              M.gb_alloc env cfg ~min:(8 * mib) ~max:p.cp_max ~multiple:page)
                        with
                        | Some a -> Some a
                        | None when tries > 0 ->
                          incr misses;
                          Os.sleep_ns 20_000_000;
                          alloc (tries - 1)
                        | None -> None
                      in
                      match alloc 50 with
                      | None -> incr misses
                      | Some a ->
                        let pid = Os.pid env in
                        let before = verify env (fun () -> page_ins pid) in
                        helper env (fun () -> M.touch_all env a);
                        Os.compute env ~ns:p.cp_compute_ns;
                        let used_cleanly = verify env (fun () -> page_ins pid = before) in
                        incr total;
                        if used_cleanly then incr agree;
                        granted := !granted + M.pages a;
                        grants.(t).(i) <- M.bytes a :: grants.(t).(i);
                        icl env Spans.mac (fun () -> M.gb_free env a)
                    done))
              inp.(t).ct_procs;
            run k;
            swap_io := !swap_io && Disk.requests (Kernel.swap_disk k) > 0)
          ks;
        {
          o_agree = !agree;
          o_verdicts = !total;
          o_checks =
            [
              ( "every pass obtained an allocation",
                !total = Array.length inp * contend_procs * contend_passes );
              ("contention pages to the swap disk in every trial", !swap_io);
            ];
          o_headline = None;
          o_granted = !granted;
          o_details = Marshal.to_string (grants, !misses) [];
        })
end

module Plain = Make (Os_sim) (No_trace)
module Traced = Make (Traced_os) (Trace)
