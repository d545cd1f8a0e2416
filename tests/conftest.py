"""Shared builders: synthetic commits, export records, compact patches
from dense arrays, all-zero parameters, and three reconstructed kernel
patches used across parser and baseline tests.
"""

from __future__ import annotations

import math

import numpy as np

from patchnet.core import Label, PatchDims, RawCommit
from patchnet.ingest import COMMIT_SEP, DIFF_SEP
from patchnet.model import ModelParams, param_specs
from patchnet.preprocess import INDEX_DTYPE, PreprocessedPatch, grid_dtype


def hex_id(n: int) -> str:
    """Deterministic 40-hex commit id from a small integer."""
    return f"{n:040x}"


def simple_diff(
    path: str = "drivers/net/foo.c",
    removed: tuple[str, ...] = ("\told = thing;",),
    added: tuple[str, ...] = ("\tnew = thing;", "\textra = 1;"),
    context: tuple[str, ...] = ("\tint x;", "\treturn x;"),
) -> str:
    """One-file one-hunk diff with the given changed lines."""
    old_count = len(context) + len(removed)
    new_count = len(context) + len(added)
    lines = [
        f"diff --git a/{path} b/{path}",
        "index 1111111..2222222 100644",
        f"--- a/{path}",
        f"+++ b/{path}",
        f"@@ -10,{old_count} +10,{new_count} @@ void frob(void)",
        f" {context[0]}",
    ]
    lines.extend("-" + r for r in removed)
    lines.extend("+" + a for a in added)
    lines.extend(" " + c for c in context[1:])
    return "\n".join(lines) + "\n"


def make_commit(
    n: int = 0,
    *,
    parents: tuple[str, ...] | None = None,
    author: str = "Dev One",
    email: str = "dev@example.org",
    date: int = 1_500_000_000,
    subject: str = "net: adjust frobnication",
    body: str = "Keep the frobnicator in range.",
    diff: str | None = None,
    label: Label | None = None,
) -> RawCommit:
    return RawCommit(
        commit_id=hex_id(n),
        parent_ids=(hex_id(n + 10_000),) if parents is None else parents,
        author_name=author,
        author_email=email,
        date=date,
        subject=subject,
        body=body,
        diff_text=simple_diff() if diff is None else diff,
        label=label,
    )


def dense_patch(commit_id, message_tokens, removed_code, added_code, label=None) -> PreprocessedPatch:
    """The compact patch of a dense (msg_len,) message and two dense
    (files, hunks, lines, words) code arrays; its dense views give them back."""
    message = np.asarray(message_tokens, dtype=INDEX_DTYPE)
    code = np.stack([removed_code, added_code]).astype(INDEX_DTYPE)
    dims = PatchDims(len(message), *code.shape[1:])
    rows, where = np.unique(code.reshape(-1, dims.words), axis=0, return_inverse=True)
    if rows[0].any():  # no slot is all PAD: ids start at 1
        where = where + 1
    else:
        rows = rows[1:]
    grid = where.reshape(dims.grid_shape).astype(grid_dtype(dims))
    return PreprocessedPatch(commit_id, message, rows, grid, dims.msg_len, label)


def zero_params(hp, msg_vocab_size: int = 7, code_vocab_size: int = 9) -> ModelParams:
    """Every parameter 0.0, so every patch scores exactly 0.5."""
    specs = param_specs(hp, msg_vocab_size, code_vocab_size)
    return ModelParams(np.zeros(sum(math.prod(shape) for _, shape in specs)), specs, hp)


def export_record(
    commit_id: str,
    parents: str,
    author: str,
    email: str,
    date: int,
    message: str,
    diff: str,
) -> str:
    """One record in the text export format the parser consumes."""
    return (
        f"{COMMIT_SEP}\n"
        f"id: {commit_id}\n"
        f"parents: {parents}\n"
        f"author: {author}\n"
        f"email: {email}\n"
        f"date: {date}\n"
        "\n"
        f"{message}\n"
        f"{DIFF_SEP}\n"
        f"{diff}"
    )


# ---------------------------------------------------------------------------
# Three reconstructed kernel patches.  The first fixes an error-return
# value (two hunks changing `return 1;` to `return err;`), the second
# swaps kmalloc+memcpy for kmemdup, the third drops writes to a power
# control register.  None of their messages mentions bug or fix, which
# the baseline tests rely on.

ERRNO_FIX_DIFF = """\
diff --git a/fs/btrfs/disk-io.c b/fs/btrfs/disk-io.c
index d8d68af..87946c6 100644
--- a/fs/btrfs/disk-io.c
+++ b/fs/btrfs/disk-io.c
@@ -303,7 +303,7 @@ static int csum_tree_block(struct btrfs_fs_info *fs_info,
 \t\terr = map_private_extent_buffer(buf, offset, 32,
 \t\t\t\t\t&kaddr, &map_start, &map_len);
 \t\tif (err)
-\t\t\treturn 1;
+\t\t\treturn err;
 \t\tcur_len = min(len, map_len - (offset - map_start));
 \t\tcrc = btrfs_csum_data(kaddr + offset - map_start,
 \t\t\t\t      crc, cur_len);
@@ -313,7 +313,7 @@ static int csum_tree_block(struct btrfs_fs_info *fs_info,
 \tif (csum_size > sizeof(inline_result)) {
 \t\tresult = kzalloc(csum_size, GFP_NOFS);
 \t\tif (!result)
-\t\t\treturn 1;
+\t\t\treturn -ENOMEM;
 \t} else {
 \t\tresult = (char *)&inline_result;
 \t}
"""

ERRNO_FIX_MESSAGE = (
    "btrfs: csum_tree_block: return proper errno value\n"
    "\n"
    "Signed-off-by: Alex Lyakas <alex@zadarastorage.com>\n"
    "Reviewed-by: Filipe Manana <fdmanana@suse.com>\n"
    "Signed-off-by: David Sterba <dsterba@suse.com>"
)

ERRNO_FIX_EXPORT = export_record(
    "8bd98f0e6bf792e8fa7c3fed709321ad42ba8d2e",
    hex_id(1),
    "Alex Lyakas",
    "alex.bolshoy@gmail.com",
    1457608186,
    ERRNO_FIX_MESSAGE,
    ERRNO_FIX_DIFF,
)

KMEMDUP_DIFF = """\
diff --git a/drivers/hid/hid-sensor-hub.c b/drivers/hid/hid-sensor-hub.c
index 1877a2552483..e46e0134b0f9 100644
--- a/drivers/hid/hid-sensor-hub.c
+++ b/drivers/hid/hid-sensor-hub.c
@@ -430,11 +430,10 @@ static int sensor_hub_raw_event(struct hid_device *hdev,
 \t\t\t\t\treport->field[i]->usage->hid &&
 \t\t\t\tpdata->pending.raw_size == 0) {
 \t\t\t\tsz = report->field[i]->report_size *
 \t\t\t\t\treport->field[i]->report_count / 8;
-\t\t\t\tpdata->pending.raw_data = kmalloc(sz, GFP_ATOMIC);
-\t\t\t\tif (pdata->pending.raw_data) {
-\t\t\t\t\tmemcpy(pdata->pending.raw_data, ptr, sz);
+\t\t\t\tpdata->pending.raw_data = kmemdup(ptr, sz, GFP_ATOMIC);
+\t\t\t\tif (pdata->pending.raw_data)
 \t\t\t\t\tpdata->pending.raw_size = sz;
-\t\t\t\t} else
+\t\t\t\telse
 \t\t\t\t\tpdata->pending.raw_size = 0;
 \t\t\t}
"""

KMEMDUP_MESSAGE = (
    "HID: hid-sensor-hub: change kmalloc + memcpy by kmemdup\n"
    "\n"
    "The patch substitutes kmemdup for kmalloc followed by memcpy.\n"
    "\n"
    "Signed-off-by: Andy Shevchenko <andy@example.org>\n"
    "Acked-by: Srinivas Pandruvada <srinivas@example.org>\n"
    "Signed-off-by: Jiri Kosina <jiri@example.org>"
)

KMEMDUP_EXPORT = export_record(
    "7b0692f1c60a9551f8ad5fe706b79a23720a196c",
    hex_id(2),
    "Andy Shevchenko",
    "andy@example.org",
    1376467631,
    KMEMDUP_MESSAGE,
    KMEMDUP_DIFF,
)

POWER_REG_DIFF = """\
diff --git a/drivers/gpu/drm/tegra/dc.c b/drivers/gpu/drm/tegra/dc.c
index 8b21e20..33e03a6 100644
--- a/drivers/gpu/drm/tegra/dc.c
+++ b/drivers/gpu/drm/tegra/dc.c
@@ -743,10 +743,6 @@ static void tegra_crtc_prepare(struct drm_crtc *crtc)
 \t\tWIN_A_OF_INT | WIN_B_OF_INT | WIN_C_OF_INT;
 \ttegra_dc_writel(dc, value, DC_CMD_INT_POLARITY);

-\tvalue = PW0_ENABLE | PW1_ENABLE | PW2_ENABLE | PW3_ENABLE |
-\t\tPW4_ENABLE | PM0_ENABLE | PM1_ENABLE;
-\ttegra_dc_writel(dc, value, DC_CMD_DISPLAY_POWER_CONTROL);
-
 \t/* initialize timer */
 \tvalue = CURSOR_THRESHOLD(0) | WINDOW_A_THRESHOLD(0x20) |
 \t\tWINDOW_B_THRESHOLD(0x20) | WINDOW_C_THRESHOLD(0x20);
 \ttegra_dc_writel(dc, value, DC_DISP_DISP_MEM_HIGH_PRIORITY);
"""

POWER_REG_MESSAGE = (
    "drm/tegra: dc - Do not touch power control register\n"
    "\n"
    "Setting the bits in this register is dependent on the output type driven\n"
    "by the display controller. All output drivers already set these properly\n"
    "so there is no need to do it here again.\n"
    "\n"
    "Signed-off-by: Thierry Reding <thierry@example.org>"
)

POWER_REG_EXPORT = export_record(
    "501bcbd1b233edc160d0c770c03747a1c4aa14e5",
    hex_id(3),
    "Thierry Reding",
    "thierry@example.org",
    1397461951,
    POWER_REG_MESSAGE,
    POWER_REG_DIFF,
)

SAMPLE_EXPORTS = (ERRNO_FIX_EXPORT, KMEMDUP_EXPORT, POWER_REG_EXPORT)
SAMPLE_MESSAGES = (ERRNO_FIX_MESSAGE, KMEMDUP_MESSAGE, POWER_REG_MESSAGE)
