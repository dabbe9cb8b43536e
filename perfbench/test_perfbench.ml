(* The benchmark's own tests: tracing must not change the simulation, and
   exclusive attribution must account for every nanosecond of a window
   exactly once, however much spans of different processes overlap. *)

open Perfbench

let mib = 1024 * 1024

(* ---- the wrapper changes nothing ------------------------------------- *)

(* The round signature holds the final simulated time, the measured
   counters, every kernel's [Kernel.counters] and the ICL verdicts. *)
let same_simulation name plain traced () =
  Spans.clear ();
  let p : Workloads.round = plain () in
  let t : Workloads.round = traced () in
  Alcotest.(check bool) (name ^ ": traced run recorded syscall spans") true
    (List.exists (fun b -> b.Spans.sc_kind.Spans.len > 0) (Spans.buffers ()));
  Alcotest.(check int) (name ^ ": sim time") p.sim_ns t.sim_ns;
  Alcotest.(check (pair int int)) (name ^ ": verdicts") (p.agree, p.verdicts) (t.agree, t.verdicts);
  Alcotest.(check bool) (name ^ ": every simulated output") true (p.signature = t.signature)

(* The check above must be able to fail: a wrapper that issues one extra
   [stat] before every [open_file] changes the simulation, and the
   signature shows it. *)
module Extra_stat_os = struct
  include Traced_os

  let open_file env path =
    ignore (Traced_os.stat env path);
    Traced_os.open_file env path
end

module Mutated = Workloads.Make (Extra_stat_os) (Workloads.Trace)

let small_scan = { (Workloads.scan_inputs 5) with Workloads.sc_size = 48 * mib }

let small_contend =
  let c = (Workloads.contend_inputs 5).(0) in
  [| { c with Workloads.ct_procs = Array.sub c.Workloads.ct_procs 0 2 } |]

let small_files = Workloads.small_inputs 5

let wrapper_tests =
  [
    ( "scan",
      same_simulation "scan"
        (fun () -> Workloads.Plain.scan small_scan)
        (fun () -> Workloads.Traced.scan small_scan) );
    ( "smallfiles",
      same_simulation "smallfiles"
        (fun () -> Workloads.Plain.small_files small_files)
        (fun () -> Workloads.Traced.small_files small_files) );
    ( "contend",
      same_simulation "contend"
        (fun () -> Workloads.Plain.contend small_contend)
        (fun () -> Workloads.Traced.contend small_contend) );
  ]

let extra_syscall_caught () =
  let p = Workloads.Plain.small_files small_files in
  let m = Mutated.small_files small_files in
  Alcotest.(check bool) "one extra syscall per open changes the signature" false
    (p.signature = m.signature)

(* ---- exclusive attribution ------------------------------------------- *)

let sum = Array.fold_left ( + ) 0

(* Two processes under one [Kernel.run]: process 1 blocks in a read while
   process 2 starts and blocks in touch_pages; their spans overlap. *)
let synthetic () =
  let open Spans in
  let events =
    [|
      (0, 0, engine);
      (10, 1, unattributed);
      (20, 1, read);
      (30, 2, unattributed);
      (40, 2, touch);
      (70, 1, leave_op);
      (80, 1, leave_op);
      (100, 2, leave_op);
      (110, 2, leave_op);
      (120, 0, leave_op);
    |]
  in
  let wall = 130 in
  let acc = attribute ~t0:0 ~t1:wall events in
  (* spans: run 0-120, proc1 10-80, read 20-70, proc2 30-110, touch 40-100 *)
  let summed = 120 + 70 + 50 + 80 + 60 in
  Alcotest.(check bool) "summed spans exceed wall time" true (summed > wall);
  let attributed = sum (Array.sub acc 1 (nlayers - 1)) in
  Alcotest.(check int) "attributed + unattributed = wall" wall (attributed + acc.(unattributed));
  Alcotest.(check int) "every ns charged once" wall (sum acc);
  Alcotest.(check int) "engine" 40 acc.(engine);
  Alcotest.(check int) "read: until the other process resumes" 10 acc.(read);
  Alcotest.(check int) "touch_pages" 30 acc.(touch);
  Alcotest.(check int) "unattributed remainder" 50 acc.(unattributed)

(* The same rule on a real two-process run through the wrapper. *)
let two_process_run () =
  Spans.clear ();
  let module W = Workloads.Traced in
  let k = W.boot ~seed:3 () in
  W.in_proc k (fun env -> Gray_apps.Workload.write_file env "/d0/a" (8 * mib));
  W.in_proc k (fun env -> Gray_apps.Workload.write_file env "/d0/b" (8 * mib));
  Simos.Kernel.flush_file_cache k;
  let t0 = Spans.now_ns () in
  List.iter
    (fun path ->
      W.spawn k ~name:path (fun env ->
          let module R = Gray_apps.Workload.Make (Traced_os) in
          R.read_file_in_units env path ~unit_bytes:(256 * 1024)))
    [ "/d0/a"; "/d0/b" ];
  W.run k;
  let t1 = Spans.now_ns () in
  let b = Spans.buf () in
  let acc = Spans.attribute ~t0 ~t1 (Spans.events_in b ~t0 ~t1) in
  let reads =
    List.filter
      (fun s -> s.Spans.s_kind = Spans.kind_of_name "read")
      (Spans.syscalls_in b ~t0 ~t1)
  in
  let summed = List.fold_left (fun acc s -> acc + (s.Spans.s_t1 - s.Spans.s_t0)) 0 reads in
  Alcotest.(check int) "every ns charged once" (t1 - t0) (sum acc);
  Alcotest.(check bool) "overlapping read spans sum past their self time" true
    (summed > acc.(Spans.read));
  Alcotest.(check bool) "both processes read" true
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Spans.s_pid) reads)) = 2)

(* Random well-nested event streams over three contexts: the cells always
   sum to the window. *)
let random_streams () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let stacks = Array.make 3 0 in
    let t = ref 0 in
    let events = ref [] in
    for _ = 1 to 50 do
      t := !t + Random.State.int st 20;
      let ctx = Random.State.int st 3 in
      if stacks.(ctx) > 0 && Random.State.bool st then begin
        stacks.(ctx) <- stacks.(ctx) - 1;
        events := (!t, ctx, Spans.leave_op) :: !events
      end
      else begin
        stacks.(ctx) <- stacks.(ctx) + 1;
        events := (!t, ctx, Random.State.int st Spans.nlayers) :: !events
      end
    done;
    let t1 = !t + Random.State.int st 20 in
    let acc = Spans.attribute ~t0:0 ~t1 (Array.of_list (List.rev !events)) in
    Alcotest.(check int) "cells sum to the window" t1 (sum acc)
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "wrapper",
        List.map
          (fun (n, f) -> Alcotest.test_case (n ^ " simulates the same") `Quick f)
          wrapper_tests
        @ [ Alcotest.test_case "an extra syscall is caught" `Quick extra_syscall_caught ] );
      ( "attribution",
        [
          Alcotest.test_case "synthetic two-process case" `Quick synthetic;
          Alcotest.test_case "two-process run" `Quick two_process_run;
          Alcotest.test_case "random streams" `Quick random_streams;
        ] );
    ]
