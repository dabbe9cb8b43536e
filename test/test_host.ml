(* Host-backend conformance: the ICLs against the real filesystem
   through Os_host.  Every call must come back as a typed result —
   never a raised [Unix_error] — and an env must not leak descriptors
   or scratch files.  Deliberately tolerant: no timing values are
   pinned (a loaded CI machine answers slowly, not wrongly), and
   capabilities the host lacks may degrade typed ([Unsupported], a
   widened confidence cap) without failing the suite. *)

open Simos
open Graybox_core
module W = Gray_apps.Workload.Make (Os_host)
module F = Fccd.Make (Os_host)
module L = Fldc.Make (Os_host)
module M = Mac.Make (Os_host)
module G = Gbp.Make (Os_host)

let rec rm_rf path =
  match (try Some (Sys.is_directory path) with Sys_error _ -> None) with
  | None -> ()
  | Some true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | Some false -> ( try Sys.remove path with Sys_error _ -> ())

(* Build a rooted env on a scratch directory; after [f] the fd table
   must be back to its baseline and the scratch tree is removed. *)
let with_env f =
  let root = Filename.temp_dir "gbp-conf" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      match Os_host.create ~root () with
      | Error e -> Alcotest.failf "host env: %s" (Kernel.error_to_string e)
      | Ok env ->
        let baseline = Os_host.open_fd_count env in
        let result =
          Fun.protect
            ~finally:(fun () -> Os_host.shutdown env)
            (fun () ->
              let r = f env root in
              Alcotest.(check int) "no fd leak" baseline
                (Os_host.open_fd_count env);
              r)
        in
        result)

let ok = Gray_apps.Workload.ok_exn
let kib64 = 64 * 1024

let test_env_basics () =
  with_env (fun env _root ->
      let t0 = Os_host.gettime env in
      Os_host.sleep_ns 1_000_000;
      let t1 = Os_host.gettime env in
      Alcotest.(check bool) "clock monotonic" true (t1 >= t0);
      let cap = Os_host.timing_confidence_cap env in
      Alcotest.(check bool) "cap in (0, 1]" true (cap > 0.0 && cap <= 1.0);
      Alcotest.(check bool) "resolution positive" true
        (Os_host.timer_resolution_ns env > 0);
      Alcotest.(check bool) "host is durable" true (Os_host.durability_on env);
      Alcotest.(check bool) "pid sane" true (Os_host.pid env > 0))

let test_files_round_trip () =
  with_env (fun env _root ->
      let paths =
        W.make_files env ~dir:"/data" ~prefix:"f" ~count:6 ~size:kib64
      in
      Alcotest.(check int) "six files" 6 (List.length paths);
      List.iter
        (fun p ->
          let st = ok (Os_host.stat env p) in
          Alcotest.(check int) (p ^ " size") kib64 st.Fs.st_size)
        paths;
      List.iter (fun p -> W.read_file env p) paths;
      Alcotest.(check (list string))
        "readdir sees them"
        (List.sort compare paths)
        (List.sort compare (W.paths_in env ~dir:"/data")))

let test_typed_errors_never_raise () =
  with_env (fun env _root ->
      (match Os_host.open_file env "/data/ghost" with
      | Error (Kernel.Fs_error Fs.Enoent) -> ()
      | Error e -> Alcotest.failf "ghost open: %s" (Kernel.error_to_string e)
      | Ok _ -> Alcotest.fail "ghost opened");
      (match Os_host.stat env "/nowhere/at/all" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ghost stat succeeded");
      ok (Os_host.mkdir env "/data");
      (match Os_host.mkdir env "/data" with
      | Error (Kernel.Fs_error Fs.Eexist) -> ()
      | Error e -> Alcotest.failf "re-mkdir: %s" (Kernel.error_to_string e)
      | Ok _ -> Alcotest.fail "re-mkdir succeeded");
      (* the root jail rejects escapes with a typed Bad_path *)
      (match Os_host.stat env "/../etc/passwd" with
      | Error Kernel.Bad_path -> ()
      | Error e -> Alcotest.failf "escape: %s" (Kernel.error_to_string e)
      | Ok _ -> Alcotest.fail "escape succeeded");
      match Os_host.unlink env "/data/ghost" with
      | Error (Kernel.Fs_error Fs.Enoent) -> ()
      | Error e -> Alcotest.failf "ghost unlink: %s" (Kernel.error_to_string e)
      | Ok () -> Alcotest.fail "ghost unlink succeeded")

let test_fccd_order_files () =
  with_env (fun env _root ->
      let paths =
        W.make_files env ~dir:"/data" ~prefix:"f" ~count:4 ~size:(4 * kib64)
      in
      let config = Fccd.default_config ~seed:3 () in
      let ranked = ok (F.order_files env config ~paths) in
      (* tolerant: the ranking must be a permutation with sane fields;
         which file probes fastest is the host's business *)
      Alcotest.(check (list string))
        "permutation"
        (List.sort compare paths)
        (List.sort compare (List.map (fun r -> r.Fccd.fr_path) ranked));
      List.iter
        (fun r ->
          Alcotest.(check bool) "probe time >= 0" true (r.Fccd.fr_probe_ns >= 0);
          Alcotest.(check int) "size" (4 * kib64) r.Fccd.fr_size)
        ranked)

let test_fccd_plan_reads_everything () =
  with_env (fun env _root ->
      let paths =
        W.make_files env ~dir:"/data" ~prefix:"p" ~count:1 ~size:(8 * kib64)
      in
      let path = List.hd paths in
      let config = Fccd.default_config ~seed:4 () in
      let plan = ok (F.probe_file env config ~path) in
      let fd = ok (Os_host.open_file env path) in
      let got = ref 0 in
      Fun.protect
        ~finally:(fun () -> Os_host.close env fd)
        (fun () ->
          F.read_plan env fd plan ~f:(fun ~off:_ ~len -> got := !got + len));
      Alcotest.(check int) "every byte arrives once" (8 * kib64) !got)

let test_fldc_inumber_and_refresh () =
  with_env (fun env _root ->
      let paths =
        W.make_files env ~dir:"/data" ~prefix:"f" ~count:8 ~size:kib64
      in
      let sorted = ok (L.order_by_inumber env ~paths:(List.rev paths)) in
      Alcotest.(check (list string))
        "inumber order is a permutation"
        (List.sort compare paths)
        (List.sort compare (List.map (fun s -> s.Fldc.so_path) sorted));
      let before =
        List.map (fun p -> (p, (ok (Os_host.stat env p)).Fs.st_size)) paths
      in
      ok (L.refresh_directory env ~dir:"/data" ());
      List.iter
        (fun (p, size) ->
          Alcotest.(check int) (p ^ " size preserved") size
            (ok (Os_host.stat env p)).Fs.st_size)
        before;
      (* parent clean: refresh left no journal, no temp directory *)
      Alcotest.(check (list string))
        "no scratch leftovers" [ "data" ]
        (ok (Os_host.readdir env "/"));
      (* and a repair pass finds nothing to do *)
      Alcotest.(check bool) "nothing to repair" false
        (ok (L.repair env ~parent:"/")))

let test_mac_never_raises () =
  with_env (fun env _root ->
      let config =
        { (Mac.default_config ()) with Mac.initial_increment = 256 * 1024;
          max_increment = 256 * 1024 }
      in
      (* whatever the host's memory situation, the answer is Some/None *)
      (match M.gb_alloc env config ~min:(256 * 1024) ~max:(512 * 1024)
               ~multiple:4096 with
      | Some a ->
        Alcotest.(check bool) "bytes in bounds" true
          (M.bytes a >= 256 * 1024 && M.bytes a <= 512 * 1024);
        let c = M.confidence a in
        Alcotest.(check bool) "confidence in [0, 1]" true (c >= 0.0 && c <= 1.0);
        M.gb_free env a
      | None -> ());
      Alcotest.(check bool) "threshold positive" true
        (M.calibrate_threshold config env > 0))

let test_vmstat_typed_either_way () =
  with_env (fun env _root ->
      match Os_host.vmstat env with
      | Ok v -> Alcotest.(check bool) "counters sane" true (v.Kernel.vm_page_outs >= 0)
      | Error (Kernel.Unsupported _) -> ()
      | Error e -> Alcotest.failf "vmstat: %s" (Kernel.error_to_string e))

(* The gbp pipeline on the host, every mode: orderings are permutations
   of the input and --out delivers each byte of the file exactly once.
   [with_env] checks the fd table; the scratch tree must be gone after. *)
let test_gbp_pipeline () =
  let size = 4 * kib64 in
  let root =
    with_env (fun env root ->
        let paths = W.make_files env ~dir:"/data" ~prefix:"g" ~count:4 ~size in
        W.read_file env (List.nth paths 2);
        let config =
          { (Fccd.default_config ~seed:6 ()) with Fccd.access_unit = kib64;
            prediction_unit = kib64 }
        in
        List.iter
          (fun mode ->
            let order, reason = G.best_order_or_fallback env config mode ~paths in
            let name = Gbp.mode_to_string mode in
            Alcotest.(check bool) (name ^ " no fallback") true (reason = None);
            Alcotest.(check (list string)) (name ^ " permutation")
              (List.sort compare paths) (List.sort compare order))
          [ Gbp.Mem; Gbp.File; Gbp.Compose ];
        let extents = ref [] in
        let total =
          ok
            (G.out env config ~path:(List.hd paths) ~consume:(fun ~off ~len ->
                 extents := (off, len) :: !extents))
        in
        Alcotest.(check int) "out total" size total;
        let covered =
          List.fold_left
            (fun next (off, len) ->
              Alcotest.(check int) "extents tile the file" next off;
              off + len)
            0 (List.sort compare !extents)
        in
        Alcotest.(check int) "extents cover the file" size covered;
        Alcotest.(check (list string)) "no scratch files"
          (List.sort compare (List.map Fldc.basename paths))
          (List.sort compare (ok (Os_host.readdir env "/data")));
        root)
  in
  Alcotest.(check bool) "scratch tree removed" false (Sys.file_exists root)

let suite =
  [
    Alcotest.test_case "env basics" `Quick test_env_basics;
    Alcotest.test_case "files round trip" `Quick test_files_round_trip;
    Alcotest.test_case "typed errors, never raise" `Quick
      test_typed_errors_never_raise;
    Alcotest.test_case "fccd order_files" `Quick test_fccd_order_files;
    Alcotest.test_case "fccd plan reads everything" `Quick
      test_fccd_plan_reads_everything;
    Alcotest.test_case "fldc inumber + refresh" `Quick
      test_fldc_inumber_and_refresh;
    Alcotest.test_case "mac never raises" `Quick test_mac_never_raises;
    Alcotest.test_case "vmstat typed either way" `Quick
      test_vmstat_typed_either_way;
    Alcotest.test_case "gbp pipeline, every mode" `Quick test_gbp_pipeline;
  ]
