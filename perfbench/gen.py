"""Render one benchmark dataset in a fresh interpreter.

usage: python3 perfbench/gen.py OUT_DIR < scene.cfg

Reads a scene config on stdin and writes OUT_DIR/frames/*.ppm,
masks/*.pgm, flow/*.mcfl and scene.cfg with ``mcma.synth``. It runs as its
own process so that the generator's frames, masks and flows never count
toward the measured process's peak memory.
"""

import sys

from program import import_mcma


def main(out_dir: str) -> None:
    import_mcma()
    from mcma.cli import parse_scene_config
    from mcma.synth import generate, save_dataset

    text = sys.stdin.read()
    save_dataset(generate(parse_scene_config(text)), out_dir, scene_text=text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
