module Page = Repro_storage.Page
module Record = Repro_wal.Record

type verdict = Applied | Already_applied | Not_yet

let apply page ~psn_before ~op =
  let psn = Page.psn page in
  if psn = psn_before then begin
    Record.apply_op page op;
    Page.set_psn page (psn_before + 1);
    Applied
  end
  else if psn > psn_before then Already_applied
  else Not_yet
