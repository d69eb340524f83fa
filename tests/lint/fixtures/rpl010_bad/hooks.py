"""Drop hooks that no checkpoint root imports: the rule covers every
linted module, not just what a root's imports reach."""


class DropHook:
    def __init__(self):
        self.on_drop = lambda packet: None  # EXPECT: RPL010
