type role = Alice | Bob

let joint_bits ~k =
  let k = max 1 k in
  int_of_float (Float.ceil (sqrt (float_of_int k))) + (2 * Iterated_log.log2_ceil (k + 2)) + 8

(* After this many tag iterations (probability ~2^-(2+4+8+...) per instance of
   getting here) the remaining strings are exchanged verbatim. *)
let default_max_iterations = 40

(* Gamma-length-prefixed concatenation of the instances named by
   [idxs.(lo .. lo + len - 1)]. *)
let length_prefixed_into buf instances idxs ~lo ~len =
  for j = lo to lo + len - 1 do
    let x = instances.(idxs.(j)) in
    Bitio.Codes.write_gamma buf (Bitio.Bits.length x);
    Bitio.Bitbuf.append buf x
  done

let run ?(sequential = true) ?(max_iterations = default_max_iterations) role rng chan instances =
  let open Commsim.Transport in
  let k = Array.length instances in
  let status = Array.make k `Undecided in
  let jbits = joint_bits ~k in
  (* Both parties derive the same tag function from the shared rng and the
     same label coordinates, ["eqb/g<gid>/t<iter>/i<idx>"] per instance
     and ["eqb/joint/g<gid>/t<iter>"] per joint test.  The labels are
     folded incrementally ([Rng.Label] hashes fragment by fragment,
     bit-identical to hashing the concatenated string), the shared prefix
     once per group and tag round, and every function is redrawn in place
     into one scratch generator and one scratch [Strhash.fn]: per instance
     the hot path copies the prefix, folds the index digits, re-seeds and
     redraws, and allocates nothing.  The scratch lives in this call, so
     concurrent runs on other domains share none of it. *)
  let root = Prng.Rng.Label.start rng in
  let prefix = Prng.Rng.Label.start rng and work = Prng.Rng.Label.start rng in
  let gen = Prng.Rng.of_int 0 in
  let fn = Strhash.create gen ~bits:1 in
  let fold_prefix ~gid ~iteration =
    Prng.Rng.Label.blit ~src:root ~dst:prefix;
    Prng.Rng.Label.add prefix "eqb/g";
    Prng.Rng.Label.add_int prefix gid;
    Prng.Rng.Label.add prefix "/t";
    Prng.Rng.Label.add_int prefix iteration;
    Prng.Rng.Label.add prefix "/i"
  in
  let redraw_instance ~idx ~bits =
    Prng.Rng.Label.blit ~src:prefix ~dst:work;
    Prng.Rng.Label.add_int work idx;
    Prng.Rng.Label.finish_into work gen;
    Strhash.redraw fn gen ~bits
  in
  let redraw_joint ~gid ~iteration =
    Prng.Rng.Label.blit ~src:root ~dst:work;
    Prng.Rng.Label.add work "eqb/joint/g";
    Prng.Rng.Label.add_int work gid;
    Prng.Rng.Label.add work "/t";
    Prng.Rng.Label.add_int work iteration;
    Prng.Rng.Label.finish_into work gen;
    Strhash.redraw fn gen ~bits:jbits
  in
  (* Exchange of one tag vector over positions [0 .. n-1]: Alice ships her
     tags, Bob replies with the positions whose tags differ from his own.
     Returns the shared mismatch bitmap.  [emit] appends position [p]'s
     tag to the outgoing buffer; [check] consumes the peer's tag for
     position [p] from the reader and says whether it matches this
     side's.  Both are called once per position, in position order. *)
  let tag_round n ~emit ~check =
    match role with
    | Alice ->
        chan.send
          (Bitio.Pool.payload (fun buf ->
               for p = 0 to n - 1 do
                 emit buf p
               done));
        Wire.read_bitmap_msg (chan.recv ()) ~width:n
    | Bob ->
        Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
            let mismatches = Array.make n false in
            for p = 0 to n - 1 do
              mismatches.(p) <- not (check reader p)
            done;
            chan.send (Wire.bitmap_msg mismatches);
            mismatches)
  in
  let group_count = if k = 0 then 0 else int_of_float (Float.ceil (sqrt (float_of_int k))) in
  let group_size = if k = 0 then 0 else (k + group_count - 1) / group_count in
  (* Bookkeeping in flat int arrays, compacted in place.  The active groups
     are slots [0 .. !n_active - 1] of [act_gid]/[act_lo]/[act_len], in gid
     order; slot [j]'s undecided instances are
     [members.(act_lo.(j) .. act_lo.(j) + act_len.(j) - 1)], in index
     order.  [pos_gid]/[pos_idx] flatten them into the positions of one
     tag round.  Sequential runs hold one group at a time, so their
     scratch is group-sized. *)
  let capacity = if sequential then group_size else k in
  let members = Array.make capacity 0 in
  let act_gid = Array.make group_count 0 in
  let act_lo = Array.make group_count 0 and act_len = Array.make group_count 0 in
  let n_active = ref 0 in
  let pos_gid = Array.make capacity 0 and pos_idx = Array.make capacity 0 in
  let cand = Array.make group_count 0 in
  (* One dirty flag per group, reused across iterations. *)
  let dirty = Array.make (max 1 group_count) false in
  let flatten () =
    let n = ref 0 in
    for j = 0 to !n_active - 1 do
      let gid = act_gid.(j) and lo = act_lo.(j) in
      for r = lo to lo + act_len.(j) - 1 do
        pos_gid.(!n) <- gid;
        pos_idx.(!n) <- members.(r);
        incr n
      done
    done;
    !n
  in
  (* Drop settled instances from every active group, then drop the groups
     left empty; both compactions keep order. *)
  let compact () =
    let live = ref 0 in
    for j = 0 to !n_active - 1 do
      let lo = act_lo.(j) in
      let w = ref lo in
      for r = lo to lo + act_len.(j) - 1 do
        let idx = members.(r) in
        if status.(idx) = `Undecided then begin
          members.(!w) <- idx;
          incr w
        end
      done;
      if !w > lo then begin
        act_gid.(!live) <- act_gid.(j);
        act_lo.(!live) <- lo;
        act_len.(!live) <- !w - lo;
        incr live
      end
    done;
    n_active := !live
  in
  (* Unconditional-termination fallback: exchange the remaining strings. *)
  let exact_round () =
    let n = flatten () in
    Obsv.Metrics.incr "eq/exact_fallbacks";
    Obsv.Metrics.incr ~by:n "eq/exact_instances";
    let mismatches =
      match role with
      | Alice ->
          chan.send
            (Bitio.Pool.payload (fun buf -> length_prefixed_into buf instances pos_idx ~lo:0 ~len:n));
          Wire.read_bitmap_msg (chan.recv ()) ~width:n
      | Bob ->
          Bitio.Pool.with_reader (chan.recv ()) (fun reader ->
              let mismatches =
                Array.init n (fun p ->
                    let len = Bitio.Codes.read_gamma reader in
                    let theirs = Bitio.Bitreader.read_blob reader ~bits:len in
                    not (Bitio.Bits.equal theirs instances.(pos_idx.(p))))
              in
              chan.send (Wire.bitmap_msg mismatches);
              mismatches)
    in
    for p = 0 to n - 1 do
      status.(pos_idx.(p)) <- (if mismatches.(p) then `Unequal else `Equal)
    done
  in
  let process () =
    let it = ref 0 in
    while !n_active > 0 do
      if !it >= max_iterations then begin
        Obsv.Trace.span Obsv.Phases.eq_exact exact_round;
        n_active := 0
      end
      else begin
        let iteration = !it in
        let bits = min 32 (2 lsl iteration) in
        Obsv.Metrics.incr "eq/tag_rounds";
        Obsv.Metrics.record "eq/tag_bits" bits;
        let n = flatten () in
        (* Positions come in group order, so the label prefix is folded
           when the group changes and reused for the rest of the group. *)
        let redraw_at p =
          if p = 0 || pos_gid.(p) <> pos_gid.(p - 1) then
            fold_prefix ~gid:pos_gid.(p) ~iteration;
          redraw_instance ~idx:pos_idx.(p) ~bits
        in
        let mismatches =
          Obsv.Trace.span Obsv.Phases.eq_tags (fun () ->
              tag_round n
                ~emit:(fun buf p ->
                  redraw_at p;
                  Strhash.write fn buf instances.(pos_idx.(p)))
                ~check:(fun reader p ->
                  redraw_at p;
                  Strhash.matches fn reader instances.(pos_idx.(p))))
        in
        (* Settle mismatching instances; remember which groups stayed clean. *)
        Array.fill dirty 0 (Array.length dirty) false;
        for p = 0 to n - 1 do
          if mismatches.(p) then begin
            status.(pos_idx.(p)) <- `Unequal;
            dirty.(pos_gid.(p)) <- true
          end
        done;
        compact ();
        (* Clean, still-undecided groups take a joint verification test. *)
        let n_cand = ref 0 in
        for j = 0 to !n_active - 1 do
          if not dirty.(act_gid.(j)) then begin
            cand.(!n_cand) <- j;
            incr n_cand
          end
        done;
        if !n_cand > 0 then begin
          Obsv.Metrics.incr "eq/joint_checks";
          (* The joint payload is assembled in a scratch writer and hashed
             through its zero-copy view; only the jbits-wide tag reaches
             the wire. *)
          let with_joint p f =
            let j = cand.(p) in
            Bitio.Pool.with_buf (fun tmp ->
                length_prefixed_into tmp instances members ~lo:act_lo.(j) ~len:act_len.(j);
                redraw_joint ~gid:act_gid.(j) ~iteration;
                f (Bitio.Bitbuf.view tmp))
          in
          let passed =
            Obsv.Trace.span Obsv.Phases.eq_joint (fun () ->
                tag_round !n_cand
                  ~emit:(fun buf p -> with_joint p (fun payload -> Strhash.write fn buf payload))
                  ~check:(fun reader p ->
                    with_joint p (fun payload -> Strhash.matches fn reader payload)))
          in
          (* [mismatch = false] means the joint tags agreed: declare equal. *)
          for p = 0 to !n_cand - 1 do
            if not passed.(p) then begin
              let j = cand.(p) in
              let lo = act_lo.(j) in
              for r = lo to lo + act_len.(j) - 1 do
                status.(members.(r)) <- `Equal
              done;
              act_len.(j) <- 0
            end
          done;
          compact ()
        end;
        incr it
      end
    done
  in
  (* Make group [gid] active, its instances stored after those of the
     groups already active. *)
  let activate gid =
    let first = gid * group_size in
    let len = Int.min k (first + group_size) - first in
    if len > 0 then begin
      let lo = if !n_active = 0 then 0 else act_lo.(!n_active - 1) + act_len.(!n_active - 1) in
      for i = 0 to len - 1 do
        members.(lo + i) <- first + i
      done;
      act_gid.(!n_active) <- gid;
      act_lo.(!n_active) <- lo;
      act_len.(!n_active) <- len;
      incr n_active
    end
  in
  if sequential then
    for gid = 0 to group_count - 1 do
      activate gid;
      process ()
    done
  else begin
    for gid = 0 to group_count - 1 do
      activate gid
    done;
    process ()
  end;
  Array.map (fun st -> st = `Equal) status

let run_alice ?sequential ?max_iterations rng chan xs =
  run ?sequential ?max_iterations Alice rng chan xs

let run_bob ?sequential ?max_iterations rng chan ys =
  run ?sequential ?max_iterations Bob rng chan ys
