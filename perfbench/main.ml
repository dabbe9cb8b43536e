(* The benchmark's entry point.

     main.exe --workload scan|smallfiles|contend|suite --seed N --seconds S --trace 0|1

   After one untimed warm-up round, repeats rounds of the workload
   (set-up, then measured phase) until S seconds have passed since the
   start, checks every round's outputs, and prints the
   metrics as the last line of standard output, one JSON object.  With
   --trace 0 those are the end-to-end metrics of untraced rounds; with
   --trace 1 untraced and traced rounds alternate, and the per-layer
   metrics come from the traced ones.  Lines before the JSON are a human
   summary. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload scan|smallfiles|contend|suite --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some t
    when List.mem w [ "scan"; "smallfiles"; "contend"; "suite" ] && s >= 1 && (t = 0 || t = 1)
    ->
    (w, seed, s, t = 1)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = args () in
  let domains = Domain.recommended_domain_count () in
  if trace then Report.Gc_pause.start ();
  let suite_tasks = ref [] in
  let run_round ~traced =
    match workload with
    | "scan" ->
      let inp = Workloads.scan_inputs seed in
      if traced then Workloads.Traced.scan inp else Workloads.Plain.scan inp
    | "smallfiles" ->
      let inp = Workloads.small_inputs seed in
      if traced then Workloads.Traced.small_files inp else Workloads.Plain.small_files inp
    | "contend" ->
      let inp = Workloads.contend_inputs seed in
      if traced then Workloads.Traced.contend inp else Workloads.Plain.contend inp
    | _ ->
      let o = Suite.round ~traced ~domains in
      if traced then suite_tasks := (o.Suite.o_tasks, o.o_domains) :: !suite_tasks;
      o.o_round
  in
  (* Each round starts from a collected heap, so no round pays for the
     garbage of the one before it.  The traced side reads the GC's
     counters around the round itself. *)
  let gc_round ~traced =
    Gc.full_major ();
    let q0 = Gc.quick_stat () and p0 = Report.Gc_pause.total_ns () in
    let r = run_round ~traced in
    let q1 = Gc.quick_stat () and p1 = Report.Gc_pause.total_ns () in
    ( r,
      {
        Report.minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
        major_words = q1.major_words -. q0.major_words;
        major_collections = q1.major_collections - q0.major_collections;
        pause_ns = p1 - p0;
      } )
  in
  let start = Unix.gettimeofday () in
  let deadline = start +. float_of_int seconds in
  let min_rounds = if trace then 2 else 3 in
  let untraced = ref [] and traced = ref [] and gcs = ref [] and failures = ref [] in
  (* One untimed warm-up round: the first round of a process grows the heap
     and faults its pages in.  Its outputs are checked like any other. *)
  let warmup = ref [] in
  (try
     warmup := [ fst (gc_round ~traced:false) ];
     while
       (Unix.gettimeofday () < deadline || List.length !untraced < min_rounds)
       && !failures = []
     do
       let traced_round () =
         let r, g = gc_round ~traced:true in
         traced := r :: !traced;
         gcs := g :: !gcs
       in
       (* alternate which side of a pair runs first, so that a drift in
          the machine's speed favours neither *)
       let traced_first = trace && List.length !traced mod 2 = 1 in
       if traced_first then traced_round ();
       untraced := fst (gc_round ~traced:false) :: !untraced;
       if trace && not traced_first then traced_round ()
     done
   with e -> failures := Printexc.to_string e :: !failures);
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all = !warmup @ untraced @ traced in
  (* every round simulates the same inputs, traced or not *)
  let signatures_agree =
    match all with
    | [] -> false
    | r :: rest -> List.for_all (fun x -> x.Workloads.signature = r.Workloads.signature) rest
  in
  let failed_checks =
    List.concat_map (fun r -> List.filter (fun (_, ok) -> not ok) r.Workloads.checks) all
  in
  let attempted =
    List.fold_left
      (fun acc r -> acc + r.Workloads.measured.syscalls + List.length r.checks)
      0 all
  in
  let failed =
    List.length failed_checks + List.length !failures + if signatures_agree then 0 else 1
  in
  let correct = failed = 0 && untraced <> [] in
  List.iter (fun e -> Printf.printf "# round failed: %s\n" e) !failures;
  List.iter (fun (name, _) -> Printf.printf "# check failed: %s\n" name) failed_checks;
  if not signatures_agree then print_endline "# rounds disagree on simulated outputs";
  Printf.printf "# workload %s seed %d: %d warm-up, %d untraced, %d traced rounds in %.1f s\n"
    workload seed (List.length !warmup) (List.length untraced) (List.length traced)
    (Unix.gettimeofday () -. start);
  let spread name f =
    match List.map f untraced with
    | [] -> ()
    | xs ->
      let arr = Array.of_list xs in
      let q p = Gray_util.Stats.percentile_of arr ~p in
      Printf.printf "# %s per round: min %.4f p25 %.4f median %.4f p75 %.4f max %.4f\n" name
        (q 0.0) (q 0.25) (q 0.5) (q 0.75) (q 1.0)
  in
  spread "setup_s" (fun r -> Report.secs r.Workloads.setup_ns);
  spread "run_s" (fun r -> Report.secs r.Workloads.run_ns);
  (match untraced with
  | r :: _ -> (
    match r.Workloads.headline with
    | Some (measured, paper) ->
      Printf.printf "# paper_err %.4f (measured %.3f, paper %.3f)\n"
        (Float.abs (measured -. paper) /. paper) measured paper
    | None -> Printf.printf "# paper_err unvalidated: no paper number for %s\n" workload)
  | [] -> ());
  let metrics =
    if untraced = [] then []
    else if not trace then
      let rss = Option.value (Report.peak_rss_mb ()) ~default:0.0 in
      Report.end_to_end ~rss untraced
    else begin
      let t =
        {
          Report.rounds = traced;
          untraced;
          gc = List.rev !gcs;
          suite_tasks = List.rev !suite_tasks;
          main_domain = (Domain.self () :> int);
        }
      in
      let ms = Report.layer_metrics t in
      if !Report.Gc_pause.lost > 0 then
        Printf.printf "# Gc.pause_ms misses %d lost runtime events\n" !Report.Gc_pause.lost;
      (try
         if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
         let path = Printf.sprintf ".perfbench/spans-%s-%d.tsv" workload seed in
         Perfbench.Spans.dump ~path;
         Printf.printf "# syscall spans written to %s\n" path
       with Sys_error e -> Printf.printf "# spans not written: %s\n" e);
      let shares =
        List.filter
          (fun x -> String.length x.Report.name > 6 && String.sub x.name 0 6 = "share.")
          ms
      in
      let sorted = List.sort (fun a b -> compare b.Report.value a.Report.value) shares in
      List.iter
        (fun x ->
          if x.Report.value >= 0.01 then
            Printf.printf "# %-28s %5.1f%%\n" x.name (100.0 *. x.value))
        sorted;
      ms
    end
  in
  print_endline (Report.json ~correct ~attempted ~failed metrics);
  exit (if untraced = [] then 1 else 0)
