(* Turns rounds and spans into the benchmark's metrics.

   End-to-end metrics come from untraced rounds: set-up time is the median
   over rounds, the measured phase's time and rates are means over rounds
   (see {!end_to_end}); simulated numbers are the round's own (every round
   simulates the same thing).  Per-layer metrics come from traced rounds
   and the spans they recorded; simulated counts are per round. *)

open Workloads

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; unit; value }
let fi = float_of_int
let ratio a b = if b = 0 then 0.0 else fi a /. fi b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let median xs = match xs with [] -> 0.0 | _ -> Gray_util.Stats.median_of (Array.of_list xs)

(* The highest of p90/p99/p99.9 with at least ten samples beyond it; the
   maximum when there are too few samples for p90. *)
let tail xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else
    let arr = Array.of_list xs in
    match List.find_opt (fun q -> fi n *. (1.0 -. q) >= 10.0) [ 0.999; 0.99; 0.9 ] with
    | Some q -> Gray_util.Stats.percentile_of arr ~p:q
    | None -> Array.fold_left max neg_infinity arr

(* Host peak resident set (VmHWM) in MB; [None] without procfs. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (fi kb /. 1024.0))
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* ---- end-to-end ------------------------------------------------------- *)

let secs ns = fi ns /. 1e9

(* The measured phase is reported as a mean over rounds, and the rates as
   the run's total work over its total measured time.  On a shared host
   the rounds of one run come at two speeds, about 1.3 to 1.6 times apart,
   and the share of slow rounds drifts from minute to minute.  A median
   then lands on one speed or the other, while a mean moves in proportion
   to the share; over 30 s windows of long runs the mean spread 13-49%
   less than the median. *)
let end_to_end ~rss rounds =
  let first = List.hd rounds in
  let run_s = List.fold_left (fun acc r -> acc +. secs r.run_ns) 0.0 rounds in
  let rate f = fratio (fi (List.fold_left (fun acc r -> acc + f r) 0 rounds)) run_s in
  [
    m "setup_s" "s" (median (List.map (fun r -> secs r.setup_ns) rounds));
    m "run_s" "s" (run_s /. fi (List.length rounds));
    m "sim_pages_per_s" "1/s" (rate (fun r -> accesses r.measured));
    m "syscalls_per_s" "1/s" (rate (fun r -> r.measured.syscalls));
    m "peak_rss_mb" "MB" rss;
    m "sim_s" "sim_s" (secs first.sim_ns);
    m "verdict_acc" "share" (ratio first.agree first.verdicts);
  ]

(* ---- GC pauses (Runtime_events) ---------------------------------------- *)

module Gc_pause = struct
  let cursor = ref None
  let pause_ns = ref 0
  let lost = ref 0
  let open_at : (int, int * int) Hashtbl.t = Hashtbl.create 8 (* ring -> depth, start *)

  let is_pause = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
    | _ -> false

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun ring t phase ->
           if is_pause phase then
             match Hashtbl.find_opt open_at ring with
             | Some (d, s) when d > 0 -> Hashtbl.replace open_at ring (d + 1, s)
             | _ -> Hashtbl.replace open_at ring (1, ts t))
         ~runtime_end:(fun ring t phase ->
           if is_pause phase then
             match Hashtbl.find_opt open_at ring with
             | Some (1, s) ->
               pause_ns := !pause_ns + (ts t - s);
               Hashtbl.replace open_at ring (0, 0)
             | Some (d, s) when d > 1 -> Hashtbl.replace open_at ring (d - 1, s)
             | _ -> ())
         ~lost_events:(fun _ n -> lost := !lost + n)
         ())

  (* Starting the runtime's event ring creates [<pid>.events] in the
     working directory; the runtime removes it at exit. *)
  let start () =
    match Runtime_events.start () with
    | () -> cursor := Some (Runtime_events.create_cursor None)
    | exception _ -> ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
    | None -> ()

  let total_ns () =
    poll ();
    !pause_ns
end

(* ---- per-layer -------------------------------------------------------- *)

type gc_round = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  pause_ns : int;
}

type traced = {
  rounds : round list;  (* traced rounds *)
  untraced : round list;  (* rounds of the same run without tracing *)
  gc : gc_round list;
  suite_tasks : (Suite.task_stats list * int) list;  (* per traced round, with pool size *)
  main_domain : int;
}

(* Windows (per round) of one domain's events attributed to layers. *)
let attribution t =
  let setup = Array.make Spans.nlayers 0 and run = Array.make Spans.nlayers 0 in
  let add acc a = Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) a in
  let bufs = Spans.buffers () in
  let main = List.filter (fun b -> b.Spans.domain = t.main_domain) bufs in
  List.iteri
    (fun i r ->
      List.iter
        (fun b ->
          let t1 = r.t_start + r.setup_ns in
          add setup (Spans.attribute ~t0:r.t_start ~t1 (Spans.events_in b ~t0:r.t_start ~t1)))
        main;
      match List.nth_opt t.suite_tasks i with
      | Some (tasks, domains) ->
        (* suite: the submitting domain only waits; the pool's workers
           are the domains that work, idle between tasks *)
        let working = List.sort_uniq compare (List.map (fun s -> s.Suite.ts_domain) tasks) in
        List.iter
          (fun b ->
            if List.mem b.Spans.domain working then
              add run
                (Spans.attribute ~initial:Spans.pool_idle ~t0:r.t_setup ~t1:r.t_end
                   (Spans.events_in b ~t0:r.t_setup ~t1:r.t_end)))
          bufs;
        let missing = max 0 (domains - List.length working) in
        run.(Spans.pool_idle) <- run.(Spans.pool_idle) + (missing * (r.t_end - r.t_setup))
      | None ->
        List.iter
          (fun b ->
            add run
              (Spans.attribute ~t0:r.t_setup ~t1:r.t_end
                 (Spans.events_in b ~t0:r.t_setup ~t1:r.t_end)))
          main)
    t.rounds;
  (setup, run)

let layer_metrics t =
  let nr = max 1 (List.length t.rounds) in
  let per_round x = fi x /. fi nr in
  let setup, run = attribution t in
  let whole = Array.mapi (fun i v -> v + run.(i)) setup in
  (* shares are of the program's time: the benchmark's own ground-truth
     reads are left out, as they are of [run_s] *)
  let program = Array.fold_left ( + ) 0 whole - whole.(Spans.verify) in
  let run_total = Array.fold_left ( + ) 0 run in
  let bufs = Spans.buffers () in
  let spans ~measured_only =
    List.concat_map
      (fun r ->
        let t0 = if measured_only then r.t_setup else r.t_start in
        List.concat_map (fun b -> Spans.syscalls_in b ~t0 ~t1:r.t_end) bufs)
      t.rounds
  in
  let all = spans ~measured_only:false and measured = spans ~measured_only:true in
  let kind name = Spans.kind_of_name name in
  let of_kind k l = List.filter (fun s -> s.Spans.s_kind = k) l in
  let pages l = List.fold_left (fun acc s -> acc + s.Spans.s_pages) 0 l in
  let dur_us s = fi (s.Spans.s_t1 - s.Spans.s_t0) /. 1e3 in
  let ns_per_page layer k = fratio (fi whole.(layer)) (fi (pages (of_kind (kind k) all))) in
  (* Kernel.boot *)
  let boots = List.concat_map (fun r -> r.boots) t.rounds in
  let boot_ms = List.map (fun (ns, _) -> fi ns /. 1e6) boots in
  let boot_words = List.map (fun (_, w) -> fi w) boots in
  (* Fs *)
  let fs_spans =
    List.filter (fun s -> List.mem Spans.kind_names.(s.Spans.s_kind) Spans.fs_kinds) all
  in
  let fs_p50 name = median (List.map dur_us (of_kind (kind name) all)) in
  (* Pool: a unified pool is split by page kind — anonymous accesses are
     the pages touched through [touch_pages], anonymous misses are zero
     fills plus swap-ins, anonymous evictions are blamed on anon victims *)
  let first = match t.rounds with r :: _ -> r | [] -> invalid_arg "Report: no traced round" in
  let s = first.measured in
  let first_touch =
    pages
      (of_kind (kind "touch_pages")
         (List.concat_map (fun b -> Spans.syscalls_in b ~t0:first.t_setup ~t1:first.t_end) bufs))
  in
  let fh, fm, fe, ah, am, ae =
    if s.unified then
      let am = s.zero_fills + s.page_ins in
      let ah = max 0 (first_touch - am) in
      ( s.file_hits - ah,
        s.file_misses - am,
        s.file_evictions - s.evicted_anon,
        ah,
        am,
        s.evicted_anon )
    else
      (s.file_hits, s.file_misses, s.file_evictions, s.anon_hits, s.anon_misses, s.anon_evictions)
  in
  let pool prefix h mi e =
    [
      m (prefix ^ ".hits") "count" (fi h);
      m (prefix ^ ".misses") "count" (fi mi);
      m (prefix ^ ".evictions") "count" (fi e);
      m (prefix ^ ".hit_ratio") "share" (ratio h (h + mi));
    ]
  in
  (* ICLs *)
  let calls layer =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc b ->
            Array.fold_left
              (fun acc (_, _, op) -> if op = layer then acc + 1 else acc)
              acc
              (Spans.events_in b ~t0:r.t_setup ~t1:r.t_end))
          acc bufs)
      0 t.rounds
  in
  (* an FCCD probe is a read FCCD issues: [read_plan], which reads the
     plan's extents, runs as the workload's own reading *)
  let fccd_probes =
    List.length (List.filter (fun s -> s.Spans.s_icl = Spans.fccd) (of_kind (kind "read") measured))
  in
  let mac_probed =
    pages (List.filter (fun s -> s.Spans.s_icl = Spans.mac) (of_kind (kind "touch_pages") measured))
  in
  let granted = List.fold_left (fun acc r -> acc + r.granted_pages) 0 t.rounds in
  (* GC *)
  let gc_mean f = per_round (List.fold_left (fun acc g -> acc + f g) 0 t.gc) in
  let gc_meanf f = List.fold_left (fun acc g -> acc +. f g) 0.0 t.gc /. fi nr in
  let top_heap_mb = fi (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0 in
  (* Domain pool (suite) *)
  let pool_metrics =
    let eff, idle, tmax =
      List.fold_left2
        (fun (e, i, tm) r (tasks, domains) ->
          let elapsed = r.t_end - r.t_setup in
          let busy = List.fold_left (fun acc s -> acc + (s.Suite.ts_t1 - s.ts_t0)) 0 tasks in
          let last d =
            List.fold_left
              (fun acc s -> if s.Suite.ts_domain = d then max acc s.ts_t1 else acc)
              r.t_setup tasks
          in
          let working = List.sort_uniq compare (List.map (fun s -> s.Suite.ts_domain) tasks) in
          let tail_idle =
            List.fold_left (fun acc d -> acc + (r.t_end - last d)) 0 working
            + (max 0 (domains - List.length working) * elapsed)
          in
          let longest = List.fold_left (fun acc s -> max acc (s.Suite.ts_t1 - s.ts_t0)) 0 tasks in
          (e +. fratio (fi busy) (fi (domains * elapsed)), i + tail_idle, max tm longest))
        (0.0, 0, 0)
        (List.filteri (fun i _ -> i < List.length t.suite_tasks) t.rounds)
        t.suite_tasks
    in
    let n = max 1 (List.length t.suite_tasks) in
    [
      m "Domain_pool.efficiency" "share" (eff /. fi n);
      m "Domain_pool.tail_idle_s" "s" (fi idle /. fi n /. 1e9);
      m "Domain_pool.task_s_max" "s" (fi tmax /. 1e9);
    ]
  in
  let host_total rs = List.map (fun r -> fi (r.setup_ns + r.run_ns)) rs in
  let overhead = fratio (median (host_total t.rounds)) (median (host_total t.untraced)) -. 1.0 in
  [
    m "Kernel.boot.ms_p50" "ms" (median boot_ms);
    m "Kernel.boot.ms_tail" "ms" (tail boot_ms);
    m "Kernel.boot.count" "count" (per_round (List.length boots));
    m "Kernel.boot.alloc_mw" "Mword"
      (fratio (List.fold_left ( +. ) 0.0 boot_words) (fi (List.length boots)) /. 1e6);
    m "Kernel.read.ns_per_page" "ns" (ns_per_page Spans.read "read");
    m "Kernel.write.ns_per_page" "ns" (ns_per_page Spans.write "write");
    m "Kernel.touch_pages.ns_per_page" "ns" (ns_per_page Spans.touch "touch_pages");
    m "Kernel.syscall.alloc_w" "word"
      (ratio (List.fold_left (fun acc s -> acc + s.Spans.s_words) 0 all) (List.length all));
  ]
  @ pool "Pool.file" fh fm fe
  @ pool "Pool.anon" ah am ae
  @ List.map (fun k -> m (Printf.sprintf "Fs.%s.us_p50" k) "us" (fs_p50 k)) Spans.fs_kinds
  @ [
      m "Fs.op.us_tail" "us" (tail (List.map dur_us fs_spans));
      m "Fs.ops" "count" (per_round (List.length fs_spans));
      m "Disk.requests" "count" (fi s.disk_requests);
      m "Disk.blocks" "count" (fi s.disk_blocks);
      m "Disk.seq_ratio" "share" (ratio s.disk_seq s.disk_requests);
      m "Disk.busy_sim_s" "sim_s" (secs s.disk_busy_ns);
      m "Engine.events" "count" (fi s.events);
      m "Engine.host_ns_per_event" "ns"
        (fratio (fi run.(Spans.engine))
           (fi (List.fold_left (fun acc r -> acc + r.measured.events) 0 t.rounds)));
      m "Fccd.calls" "count" (per_round (calls Spans.fccd));
      m "Fccd.self_ms" "ms" (per_round run.(Spans.fccd) /. 1e6);
      m "Fccd.probes" "count" (per_round fccd_probes);
      m "Fldc.calls" "count" (per_round (calls Spans.fldc));
      m "Fldc.self_ms" "ms" (per_round run.(Spans.fldc) /. 1e6);
      m "Mac.calls" "count" (per_round (calls Spans.mac));
      m "Mac.self_ms" "ms" (per_round run.(Spans.mac) /. 1e6);
      m "Mac.grant_ratio" "share" (ratio granted mac_probed);
      m "Gc.minor_mw" "Mword" (gc_meanf (fun g -> g.minor_words) /. 1e6);
      m "Gc.major_mw" "Mword" (gc_meanf (fun g -> g.major_words) /. 1e6);
      m "Gc.major_collections" "count" (gc_mean (fun g -> g.major_collections));
      m "Gc.top_heap_mb" "MB" top_heap_mb;
      m "Gc.pause_ms" "ms" (gc_mean (fun g -> g.pause_ns) /. 1e6);
    ]
  @ pool_metrics
  @ [
      m "trace.attributed_frac" "share" (1.0 -. ratio run.(Spans.unattributed) run_total);
      m "trace.overhead" "share" overhead;
    ]
  @ List.filter_map
      (fun l ->
        if l = Spans.verify then None
        else Some (m ("share." ^ Spans.layer_names.(l)) "share" (ratio whole.(l) program)))
      (List.init Spans.nlayers Fun.id)

(* ---- output ----------------------------------------------------------- *)

let json ~correct ~attempted ~failed metrics =
  let open Gray_util.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", String x.unit) ]))
                metrics) );
       ])
