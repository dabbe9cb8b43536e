(* The [suite] workload: a fixed slice of the figure harness, run the way
   users regenerate figures — [Bench_common.execute] over a
   [Gray_util.Domain_pool] of one domain per core.

   The slice is fig1's coarse, unequal tasks plus fig5's and fig6's short
   ones, with the plans' own fixed seeds: the seed argument does not
   change this workload's inputs.  Correctness is the plans' own
   expected-shape checks.

   Every task is wrapped (from outside) so that its kernels' simulated
   counters are read after it ran, and — traced — so that its host time
   is a span on the domain that ran it.

   The harness's tasks boot their own kernels inside the measured phase,
   so building the plans and starting the pool would leave the set-up a
   few milliseconds of domain spawning, too little to time steadily.  The
   set-up therefore also boots one kernel per pool domain with the
   harness's own [Bench_common.boot], the boot every task of the slice
   starts with, and drops it. *)

open Gray_bench

let mib = 1024 * 1024

type task_stats = {
  mutable ts_sim : Workloads.snap;
  mutable ts_t0 : int;
  mutable ts_t1 : int;
  mutable ts_domain : int;
}

let plans () =
  Bench_common.set_trials 1;
  Bench_common.set_telemetry_mode Gray_util.Telemetry.Off;
  [
    ( "fig1",
      Fig1.plan_sized ~file_bytes:(1664 * mib) ~access_units:[ 10 * mib; 100 * mib ]
        ~prediction_units:[ 1 * mib; 10 * mib; 100 * mib ] ~trials:1 () );
    ("fig5", Fig5.plan ());
    ("fig6", Fig6.plan ());
  ]

(* Each task fills only its own [task_stats], so domains never share a
   mutable cell. *)
let wrap ~traced (t : Bench_common.task) =
  let st = { ts_sim = Workloads.zero_snap; ts_t0 = 0; ts_t1 = 0; ts_domain = 0 } in
  let run () =
    st.ts_domain <- (Domain.self () :> int);
    st.ts_t0 <- Spans.now_ns ();
    if traced then Spans.span ~ctx:0 Spans.task t.t_run else t.t_run ();
    st.ts_t1 <- Spans.now_ns ();
    (match Domain.DLS.get Bench_common.kernel_collector with
    | Some kernels ->
      st.ts_sim <-
        List.fold_left
          (fun acc k -> Workloads.add acc (Workloads.snap k))
          Workloads.zero_snap !kernels
    | None -> ())
  in
  ({ t with t_run = run }, st)

(* EXPERIMENTS.md, Figure 5: "i-number sort wins by ~6x (Linux/NetBSD)"
   over random order. *)
let headline figures =
  match
    (List.assoc_opt "random_s[linux-2.2]" figures, List.assoc_opt "byino_s[linux-2.2]" figures)
  with
  | Some random, Some byino when byino > 0.0 -> Some (random /. byino, 6.0)
  | _ -> None

type outcome = {
  o_round : Workloads.round;
  o_tasks : task_stats list;
  o_domains : int;
}

let round ~traced ~domains =
  let t_start = Spans.now_ns () in
  (* [Kernel.boot] reads GRAYBOX_ACCOUNT and GRAYBOX_FLIGHT through
     process-wide lazy values; forced for the first time by two domains
     at once they raise [CamlinternalLazy.Undefined].  Force them here,
     before the pool fans out. *)
  ignore (Simos.Account.of_env ());
  ignore (Gray_util.Flight.of_env ());
  let plans = plans () in
  let boots =
    List.init domains (fun _ ->
        let w0 = Spans.words () and t0 = Spans.now_ns () in
        let boot () = ignore (Bench_common.boot ()) in
        if traced then Spans.span ~ctx:0 Spans.boot boot else boot ();
        (Spans.now_ns () - t0, Spans.words () - w0))
  in
  let pool = Gray_util.Domain_pool.create ~size:domains in
  let t_setup_end = Spans.now_ns () in
  (* the measured phase starts from a collected heap, as every round
     does, and does not collect the dropped kernels *)
  Gc.full_major ();
  let t_setup = Spans.now_ns () in
  let cells =
    List.map
      (fun (_, p) ->
        let ts = List.map (wrap ~traced) p.Bench_common.p_tasks in
        ({ p with Bench_common.p_tasks = List.map fst ts }, List.map snd ts))
      plans
  in
  let wrapped = List.map fst cells in
  Bench_common.execute ~pool wrapped;
  let t_end = Spans.now_ns () in
  Gray_util.Domain_pool.shutdown pool;
  let rendered = List.map (fun p -> p.Bench_common.p_render ()) wrapped in
  let checks =
    List.concat_map
      (fun r -> List.map (fun c -> (c.Bench_common.ck_name, c.ck_ok)) r.Bench_common.rd_checks)
      rendered
  in
  let figures =
    List.concat_map
      (fun r ->
        List.map (fun f -> (f.Bench_common.fg_name, f.fg_value)) r.Bench_common.rd_figures)
      rendered
  in
  let tasks = List.concat_map snd cells in
  let measured =
    List.fold_left (fun acc t -> Workloads.add acc t.ts_sim) Workloads.zero_snap tasks
  in
  let headline = headline figures in
  let checks = checks @ List.map Workloads.paper_check (Option.to_list headline) in
  let ok = List.length (List.filter snd checks) in
  let r =
    {
      Workloads.setup_ns = t_setup_end - t_start;
      run_ns = t_end - t_setup;
      t_start;
      t_setup;
      t_end;
      sim_ns = measured.now;
      measured;
      agree = ok;
      verdicts = List.length checks;
      checks;
      headline;
      granted_pages = 0;
      boots;
      signature = Marshal.to_string (measured, figures, checks) [];
    }
  in
  { o_round = r; o_tasks = tasks; o_domains = domains }
